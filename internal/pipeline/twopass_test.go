package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

// The explicit two-pass workflow with the profile externalized must
// produce an executable equivalent to the in-memory Build, for every
// workload (exercising the paper's Figure 2 with a profile data file).
func TestTwoPassMatchesBuild(t *testing.T) {
	opts := Options{Switch: lower.SetI, Optimize: true, CommonSuccessor: true}
	for _, name := range []string{"wc", "cpp", "yacc", "sort"} {
		w, _ := workload.Named(name)
		train, test := w.Train(), w.Test()

		// Pass 1: instrument, train, serialize the profile.
		ins, err := Instrument(w.Source, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prof, orProf, err := ins.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteProfile(&buf, prof, orProf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// Pass 2: fresh compilation driven by the stored profile.
		seqs, ors, err := core.ReadProfiles(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: parse profile: %v\n%s", name, err, buf.String())
		}
		twoPass, err := Finalize(w.Source, opts, seqs, ors)
		if err != nil {
			t.Fatalf("%s: finalize: %v", name, err)
		}

		// Reference: the all-in-memory build.
		ref, err := Build(w.Source, train, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		_, out2, s2 := runProg(t, twoPass.Reordered, string(test))
		_, outR, sR := runProg(t, ref.Reordered, string(test))
		if out2 != outR {
			t.Errorf("%s: two-pass output differs from Build", name)
		}
		if s2.Insts != sR.Insts || s2.CondBranches != sR.CondBranches {
			t.Errorf("%s: two-pass counts differ: insts %d vs %d, branches %d vs %d",
				name, s2.Insts, sR.Insts, s2.CondBranches, sR.CondBranches)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	w, _ := workload.Named("lex")
	opts := Options{Switch: lower.SetIII, Optimize: true, CommonSuccessor: true}
	ins, err := Instrument(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	prof, orProf, err := ins.Train(w.Train())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, prof, orProf); err != nil {
		t.Fatal(err)
	}
	seqs, ors, err := core.ReadProfiles(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(prof.Seqs) {
		t.Errorf("round trip lost sequences: %d vs %d", len(seqs), len(prof.Seqs))
	}
	if len(ors) != len(orProf.Seqs) {
		t.Errorf("round trip lost or-sequences: %d vs %d", len(ors), len(orProf.Seqs))
	}
	for id, sp := range prof.Seqs {
		got := seqs[id]
		if got == nil || got.Total != sp.Total || len(got.Counts) != len(sp.Counts) {
			t.Fatalf("sequence %d mangled", id)
		}
		for i := range sp.Counts {
			if got.Counts[i] != sp.Counts[i] {
				t.Fatalf("sequence %d count %d changed", id, i)
			}
		}
	}
	for id, sp := range orProf.Seqs {
		got := ors[id]
		if got == nil || got.Total != sp.Total || got.N != sp.N {
			t.Fatalf("or-sequence %d mangled", id)
		}
	}
}

func TestReadProfilesErrors(t *testing.T) {
	bad := []string{
		"bogus 1 total 2 counts 1 1",
		"seq x total 2 counts 1 1",
		"seq 1 total 3 counts 1 1",                               // sum mismatch
		"seq 1 total 2 combos 1 1",                               // wrong keyword
		"orseq 1 total 3 combos 1 1 1",                           // not a power of two
		"seq 1 sum 2 counts 1 1",                                 // bad structure
		"seq 1 total 2 counts 1 1\nseq 1 total 1 counts 1 0",     // repeated seq ID
		"orseq 4 total 1 combos 1 0\norseq 4 total 1 combos 0 1", // repeated orseq ID
	}
	for _, src := range bad {
		if _, _, err := core.ReadProfiles(strings.NewReader(src)); err == nil {
			t.Errorf("ReadProfiles(%q) succeeded", src)
		}
	}
	// Comments and blank lines are fine.
	good := "# comment\n\nseq 1 total 2 counts 1 1\n"
	if _, _, err := core.ReadProfiles(strings.NewReader(good)); err != nil {
		t.Errorf("ReadProfiles rejected valid input: %v", err)
	}
}

func TestFinalizeRejectsMismatchedProfile(t *testing.T) {
	w, _ := workload.Named("wc")
	opts := Options{Switch: lower.SetI, Optimize: true}
	// A profile with the wrong arm count for sequence 0.
	seqs := map[int]*core.SeqProfile{0: {Counts: []uint64{1}, Total: 1}}
	if _, err := Finalize(w.Source, opts, seqs, nil); err == nil {
		t.Error("mismatched profile accepted")
	}
	// A sequence ID the source does not have.
	seqs = map[int]*core.SeqProfile{99: {Counts: []uint64{5}, Total: 5}}
	if _, err := Finalize(w.Source, opts, seqs, nil); err == nil ||
		!strings.Contains(err.Error(), "sequence 99") {
		t.Errorf("unknown sequence ID: err = %v", err)
	}
	// An or-sequence entry while the common-successor extension, and so
	// every or-sequence, is off.
	ors := map[int]*core.OrSeqProfile{0: {N: 1, Combos: []uint64{1, 2}, Total: 3}}
	if _, err := Finalize(w.Source, opts, nil, ors); err == nil ||
		!strings.Contains(err.Error(), "or-sequence 0") {
		t.Errorf("or-sequence entry without or-sequences: err = %v", err)
	}
}
