package store

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
)

// trainWith returns a sampleTrain-shaped product with scaled counts so
// different contributions are distinguishable.
func trainWith(scale uint64) *ProfileRecord {
	tp := sampleTrain()
	for _, sp := range tp.SeqProfiles {
		for i := range sp.Counts {
			sp.Counts[i] *= scale
		}
		sp.Total *= scale
	}
	for _, op := range tp.OrSeqProfiles {
		for i := range op.Combos {
			op.Combos[i] *= scale
		}
		op.Total *= scale
	}
	return FromTrain(tp)
}

func mergedFP() string {
	return MergedFingerprint("int main() { return 0; }",
		pipeline.FrontendOptions{Optimize: true},
		pipeline.DetectOptions{Profile: profile.Config{Merge: true}})
}

func TestMergedRecordRoundTrip(t *testing.T) {
	rec := &MergedRecord{HalfLife: 2}
	rec.Merge(TrainDigest([]byte("input-a")), trainWith(1))
	rec.Merge(TrainDigest([]byte("input-b")), trainWith(2))
	fp := mergedFP()
	data, err := EncodeMerged(fp, rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMerged(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip changed the record:\ngot  %+v\nwant %+v", back, rec)
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, status := st.GetMerged(fp); status != Miss {
		t.Fatalf("empty store: %v", status)
	}
	if err := st.PutMerged(fp, rec); err != nil {
		t.Fatal(err)
	}
	got, status := st.GetMerged(fp)
	if status != Hit || !reflect.DeepEqual(got, rec) {
		t.Fatalf("disk round trip: %v %+v", status, got)
	}
	// Kind isolation: the other decoders must reject a merged entry.
	if _, status := st.Get(fp); status != Invalid {
		t.Fatalf("build Get on merged entry: %v", status)
	}
	if _, status := st.GetProfile(fp); status != Invalid {
		t.Fatalf("profile Get on merged entry: %v", status)
	}
}

// Within one half-life no contribution is attenuated, so the fold is a
// plain sum and arrival order cannot matter. The encoded records are
// also byte-identical up to the generation stamps' recency semantics.
func TestMergeFoldOrderIndependent(t *testing.T) {
	digests := []string{
		TrainDigest([]byte("input-a")),
		TrainDigest([]byte("input-b")),
		TrainDigest([]byte("input-c")),
	}
	fold := func(order []int) *pipeline.TrainProduct {
		rec := &MergedRecord{HalfLife: 10}
		for _, i := range order {
			rec.Merge(digests[i], trainWith(uint64(i+1)))
		}
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
		return rec.Fold()
	}
	want := fold([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := fold(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold depends on arrival order %v:\ngot  %+v\nwant %+v", order, got.SeqProfiles[0], want.SeqProfiles[0])
		}
	}
	// Determinism: the same merge sequence encodes to identical bytes.
	build := func() []byte {
		rec := &MergedRecord{HalfLife: 10}
		for i, d := range digests {
			rec.Merge(d, trainWith(uint64(i+1)))
		}
		data, err := EncodeMerged(mergedFP(), rec)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("same merge sequence produced different bytes")
	}
}

func TestMergeDecayAndReplacement(t *testing.T) {
	rec := &MergedRecord{HalfLife: 1}
	rec.Merge(TrainDigest([]byte("old")), trainWith(4)) // generation 1
	rec.Merge(TrainDigest([]byte("new")), trainWith(4)) // generation 2
	tp := rec.Fold()
	// sampleTrain seq 0 counts {3,5,2}*4; the stale contribution is one
	// generation behind at half-life 1, so it folds in halved.
	sp := tp.SeqProfiles[0]
	want := []uint64{12 + 6, 20 + 10, 8 + 4}
	if !reflect.DeepEqual(sp.Counts, want) {
		t.Fatalf("decayed fold: %v, want %v", sp.Counts, want)
	}
	if sp.Total != 60 {
		t.Fatalf("folded total %d, want 60", sp.Total)
	}

	// Re-merging an existing digest replaces its counts and refreshes
	// its generation instead of duplicating it.
	rec.Merge(TrainDigest([]byte("old")), trainWith(8))
	if len(rec.Contribs) != 2 {
		t.Fatalf("replacement grew the record to %d contributions", len(rec.Contribs))
	}
	maxGen := 0
	for _, c := range rec.Contribs {
		if c.Generation > maxGen {
			maxGen = c.Generation
		}
		if c.TrainDigest == TrainDigest([]byte("old")) && c.Profile.Seqs[0].Counts[0] != 24 {
			t.Fatalf("replacement kept stale counts: %v", c.Profile.Seqs[0].Counts)
		}
	}
	if maxGen != 3 {
		t.Fatalf("refreshed generation %d, want 3", maxGen)
	}
}

func TestMergeBoundDropsStalest(t *testing.T) {
	rec := &MergedRecord{HalfLife: 1}
	for i := 0; i < MaxMergeContribs+3; i++ {
		rec.Merge(TrainDigest([]byte(fmt.Sprintf("input-%d", i))), trainWith(1))
	}
	if len(rec.Contribs) != MaxMergeContribs {
		t.Fatalf("record holds %d contributions, want %d", len(rec.Contribs), MaxMergeContribs)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	minGen := rec.Contribs[0].Generation
	for _, c := range rec.Contribs {
		if c.Generation < minGen {
			minGen = c.Generation
		}
	}
	// 11 merges; the three stalest (generations 1-3) must be gone.
	if minGen != 4 {
		t.Fatalf("stalest surviving generation %d, want 4", minGen)
	}
}

func TestMergedRecordValidateRejects(t *testing.T) {
	good := func() *MergedRecord {
		rec := &MergedRecord{HalfLife: 1}
		rec.Merge(TrainDigest([]byte("a")), trainWith(1))
		rec.Merge(TrainDigest([]byte("b")), trainWith(1))
		return rec
	}
	cases := map[string]func() *MergedRecord{
		"zero half-life": func() *MergedRecord { r := good(); r.HalfLife = 0; return r },
		"no contribs":    func() *MergedRecord { return &MergedRecord{HalfLife: 1} },
		"bad digest":     func() *MergedRecord { r := good(); r.Contribs[0].TrainDigest = "xyz"; return r },
		"unsorted": func() *MergedRecord {
			r := good()
			r.Contribs[0], r.Contribs[1] = r.Contribs[1], r.Contribs[0]
			return r
		},
		"duplicate digest": func() *MergedRecord {
			r := good()
			r.Contribs[1].TrainDigest = r.Contribs[0].TrainDigest
			return r
		},
		"zero generation": func() *MergedRecord { r := good(); r.Contribs[0].Generation = 0; return r },
		"bad profile": func() *MergedRecord {
			r := good()
			r.Contribs[0].Profile.Seqs[0].Total++
			return r
		},
		"shape mismatch": func() *MergedRecord {
			r := good()
			r.Contribs[0].Profile.NumSeqs++
			return r
		},
		"count length varies": func() *MergedRecord {
			r := good()
			s := &r.Contribs[0].Profile.Seqs[0]
			s.Counts = append(s.Counts, 0)
			return r
		},
		"oversized": func() *MergedRecord {
			// Merge would have trimmed; a hostile writer would not.
			digests := make([]string, MaxMergeContribs+1)
			for i := range digests {
				digests[i] = TrainDigest([]byte(fmt.Sprintf("%02d", i)))
			}
			sort.Strings(digests)
			r := &MergedRecord{HalfLife: 1}
			for i, d := range digests {
				r.Contribs = append(r.Contribs, MergedContribution{
					TrainDigest: d, Generation: i + 1, Profile: *trainWith(1),
				})
			}
			return r
		},
	}
	for name, make := range cases {
		if err := make().Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var nilRec *MergedRecord
	if err := nilRec.Validate(); err == nil {
		t.Error("nil record accepted")
	}
	if err := good().Validate(); err != nil {
		t.Errorf("good record rejected: %v", err)
	}
}

// The merged fingerprint accumulates across training inputs and drift
// choices but must keep sampled/biased configurations apart.
func TestMergedFingerprintAxes(t *testing.T) {
	fo := pipeline.FrontendOptions{Optimize: true}
	d := func(cfg profile.Config) pipeline.DetectOptions {
		return pipeline.DetectOptions{Profile: cfg}
	}
	base := MergedFingerprint("src", fo, d(profile.Config{Merge: true}))
	cross := MergedFingerprint("src", fo, d(profile.Config{Merge: true, Drift: profile.DriftNone}))
	if base != cross {
		t.Error("drift changed the merged fingerprint; cross-drift runs cannot accumulate")
	}
	sampled := MergedFingerprint("src", fo, d(profile.Config{Merge: true, Mode: profile.EveryNth, Rate: 8}))
	biased := MergedFingerprint("src", fo, d(profile.Config{Merge: true, Bias: 5}))
	otherSrc := MergedFingerprint("src2", fo, d(profile.Config{Merge: true}))
	seen := map[string]bool{base: true}
	for i, v := range []string{sampled, biased, otherSrc} {
		if seen[v] {
			t.Errorf("axis %d collides with another configuration", i)
		}
		seen[v] = true
	}
	if strings.Contains(base, "/") {
		t.Error("fingerprint not hex")
	}
}
