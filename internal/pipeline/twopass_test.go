package pipeline

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

// firstPass runs the two-pass workflow's first pass on w under o, as
// brcc -profile-out does, and returns its training product and the
// profile file it writes.
func firstPass(t *testing.T, w workload.Workload, o Options) (*TrainProduct, []byte) {
	t.Helper()
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	tp, err := TrainStage(front, w.Train(), o.Detection())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, tp); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return tp, buf.Bytes()
}

// The explicit two-pass workflow, with the profile stored in a file
// between the passes, must build exactly what the in-memory Build does:
// the same baseline and reordered programs for every workload, heuristic
// set and common-successor setting.
func TestTwoPassMatchesBuild(t *testing.T) {
	for _, w := range workload.All() {
		for _, set := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
			for _, commonSucc := range []bool{false, true} {
				o := Options{Switch: set, Optimize: true, CommonSuccessor: commonSucc}
				name := fmt.Sprintf("%s (set %v, common successor %v)", w.Name, set, commonSucc)
				_, file := firstPass(t, w, o)
				seqs, ors, err := core.ReadProfiles(bytes.NewReader(file))
				if err != nil {
					t.Fatalf("%s: parse profile: %v\n%s", name, err, file)
				}
				twoPass, err := Finalize(w.Source, o, seqs, ors)
				if err != nil {
					t.Fatalf("%s: finalize: %v", name, err)
				}
				ref, err := Build(w.Source, w.Train(), o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if twoPass.Baseline.Digest() != ref.Baseline.Digest() ||
					twoPass.Reordered.Digest() != ref.Reordered.Digest() {
					t.Errorf("%s: two-pass build differs from Build", name)
				}
			}
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	w, _ := workload.Named("lex")
	tp, file := firstPass(t, w, Options{Switch: lower.SetIII, Optimize: true, CommonSuccessor: true})
	if len(tp.SeqProfiles) == 0 || len(tp.OrSeqProfiles) == 0 {
		t.Fatalf("lex has %d sequences and %d or-sequences; the test needs both",
			len(tp.SeqProfiles), len(tp.OrSeqProfiles))
	}
	seqs, ors, err := core.ReadProfiles(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, tp.SeqProfiles) {
		t.Errorf("round trip changed the sequence counts:\n%s", file)
	}
	if len(ors) != len(tp.OrSeqProfiles) {
		t.Errorf("round trip lost or-sequences: %d vs %d", len(ors), len(tp.OrSeqProfiles))
	}
	for id, sp := range tp.OrSeqProfiles {
		got := ors[id]
		if got == nil || got.Total != sp.Total || got.N != sp.N || !slices.Equal(got.Combos, sp.Combos) {
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
		"seq 1x total 2 counts 1 1",                              // trailing text after a number
		"seq 1 total 2x counts 1 1",
		"seq 1 total 2 counts 1 1x",
		"orseq 2 total 1 combos 1 0junk",
		"seq 1 total 0 counts 0x10",                   // not decimal
		"seq 1 total 1 counts 18446744073709551615 2", // the sum wraps to the total
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

// One profile check guards every finalize: counts that do not fit the
// detected sequences are rejected alike from a profile file (Finalize)
// and from a training product (FinalizeStages).
func TestFinalizeChecksProfile(t *testing.T) {
	w, _ := workload.Named("lex")
	o := Options{Switch: lower.SetIII, Optimize: true, CommonSuccessor: true}
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TrainStage(front, w.Train(), o.Detection())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSeqs == 0 || tp.NumOrSeqs == 0 {
		t.Fatalf("lex has %d sequences and %d or-sequences; the test needs both", tp.NumSeqs, tp.NumOrSeqs)
	}
	seq, orSeq := 0, tp.NumSeqs // the first ID of each kind
	arms, conds := len(tp.SeqProfiles[seq].Counts), tp.OrSeqProfiles[orSeq].N
	for _, c := range []struct {
		name string
		edit func(map[int]*core.SeqProfile, map[int]*core.OrSeqProfile)
		want string
	}{
		{"unknown sequence", func(seqs map[int]*core.SeqProfile, _ map[int]*core.OrSeqProfile) {
			seqs[99] = &core.SeqProfile{Counts: []uint64{5}, Total: 5}
		}, "profile has counts for sequence 99, which the source does not have"},
		// A range sequence's ID is no or-sequence's.
		{"unknown or-sequence", func(_ map[int]*core.SeqProfile, ors map[int]*core.OrSeqProfile) {
			ors[seq] = &core.OrSeqProfile{N: 1, Combos: []uint64{2, 3}, Total: 5}
		}, fmt.Sprintf("profile has counts for or-sequence %d, which the source does not have", seq)},
		{"wrong count length", func(seqs map[int]*core.SeqProfile, _ map[int]*core.OrSeqProfile) {
			seqs[seq] = &core.SeqProfile{Counts: make([]uint64, arms+1)}
		}, fmt.Sprintf("profile for sequence %d has %d counts, expected %d", seq, arms+1, arms)},
		{"wrong condition count", func(_ map[int]*core.SeqProfile, ors map[int]*core.OrSeqProfile) {
			ors[orSeq] = &core.OrSeqProfile{N: conds + 1, Combos: make([]uint64, 1<<(conds+1))}
		}, fmt.Sprintf("profile for or-sequence %d has %d conditions, expected %d", orSeq, conds+1, conds)},
	} {
		seqs, ors := maps.Clone(tp.SeqProfiles), maps.Clone(tp.OrSeqProfiles)
		c.edit(seqs, ors)
		_, fileErr := Finalize(w.Source, o, seqs, ors)
		_, productErr := FinalizeStages(front, &TrainProduct{seqs, ors, tp.NumSeqs, tp.NumOrSeqs}, o)
		for via, err := range map[string]error{"Finalize": fileErr, "FinalizeStages": productErr} {
			if err == nil || !strings.Contains(err.Error(), c.want) ||
				!strings.HasSuffix(err.Error(), "(was the profile produced from the same source and options?)") {
				t.Errorf("%s: %s: error %v, want %q and the hint", c.name, via, err, c.want)
			}
		}
	}
}
