package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refRangeHook is the range-profile hook as a map lookup per event for
// the counts, another for the arm table, and sort.Search over it: the
// reference the slice-indexed Profile.Hook must count exactly like.
func refRangeHook(seqs []*Sequence) (map[int]*SeqProfile, func(seqID, sub int, v int64)) {
	counts := map[int]*SeqProfile{}
	tables := map[int][]lookupEntry{}
	for _, s := range seqs {
		counts[s.ID] = &SeqProfile{Counts: make([]uint64, len(s.Arms))}
		tbl := make([]lookupEntry, len(s.Arms))
		for i, a := range s.Arms {
			tbl[i] = lookupEntry{a.R, i}
		}
		sort.Slice(tbl, func(i, j int) bool { return tbl[i].r.Lo < tbl[j].r.Lo })
		tables[s.ID] = tbl
	}
	return counts, func(seqID, sub int, v int64) {
		sp, ok := counts[seqID]
		if !ok {
			return
		}
		tbl := tables[seqID]
		idx := sort.Search(len(tbl), func(i int) bool { return tbl[i].r.Lo > v }) - 1
		if idx < 0 || !tbl[idx].r.Contains(v) {
			return
		}
		sp.Counts[tbl[idx].arm]++
		sp.Total++
	}
}

// refOrHook is the or-profile hook as a map lookup per event.
func refOrHook(seqs map[int]*OrSeqProfile) func(seqID, sub int, v int64) {
	return func(seqID, sub int, v int64) {
		sp, ok := seqs[seqID]
		if !ok {
			return
		}
		if sub == 0 {
			sp.pendingMask = 0
			sp.pendingSubs = 0
		}
		if v != 0 {
			sp.pendingMask |= 1 << sub
		}
		sp.pendingSubs++
		if sp.pendingSubs == sp.N {
			sp.Combos[sp.pendingMask]++
			sp.Total++
		}
	}
}

// partitionArms returns n arms whose ranges split the value domain at
// random cut points, in random order. With gap set, one arm is dropped,
// so some values fall in no arm.
func partitionArms(rng *rand.Rand, n int, gap bool) []Arm {
	cuts := map[int64]bool{}
	for len(cuts) < n-1 {
		cuts[rng.Int63n(200)-100] = true
	}
	bounds := []int64{math.MinInt64}
	for c := range cuts {
		bounds = append(bounds, c)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	arms := make([]Arm, n)
	for i, lo := range bounds {
		hi := int64(math.MaxInt64)
		if i+1 < n {
			hi = bounds[i+1] - 1
		}
		arms[i] = Arm{R: Range{lo, hi}}
	}
	rng.Shuffle(n, func(i, j int) { arms[i], arms[j] = arms[j], arms[i] })
	if gap && n > 1 {
		arms = arms[1:]
	}
	return arms
}

// The slice-indexed training hooks count exactly what a map lookup per
// event counts: for random arm sets with and without gaps, values at
// every range boundary and one either side, and sequence IDs that are
// present, absent between present ones, negative and out of range.
func TestProfileHooksMatchMapLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		firstID, step := rng.Intn(6), 1+rng.Intn(2)
		ids := []int{-1, -firstID - 7, firstID - 1, math.MinInt, math.MaxInt}
		var seqs []*Sequence
		var values []int64
		for i := 0; i < 1+rng.Intn(5); i++ {
			s := &Sequence{ID: firstID + i*step, Arms: partitionArms(rng, 1+rng.Intn(7), rng.Intn(3) == 0)}
			seqs = append(seqs, s)
			ids = append(ids, s.ID, s.ID+1)
			for _, a := range s.Arms {
				values = append(values, a.R.Lo-1, a.R.Lo, a.R.Lo+1, a.R.Hi-1, a.R.Hi, a.R.Hi+1)
			}
		}
		var orSeqs []*OrSequence
		orFirst := seqs[len(seqs)-1].ID + 1
		for i := 0; i < rng.Intn(4); i++ {
			orSeqs = append(orSeqs, &OrSequence{ID: orFirst + i*step, Conds: make([]*OrCond, 1+rng.Intn(3))})
			ids = append(ids, orFirst+i*step, orFirst+i*step+1)
		}

		prof, orProf := NewProfile(seqs), NewOrProfile(orSeqs)
		hook, orHook := prof.Hook(), orProf.Hook()
		wantCounts, refHook := refRangeHook(seqs)
		wantOr := NewOrProfile(orSeqs)
		refOr := refOrHook(wantOr.Seqs)
		for k := 0; k < 400; k++ {
			id := ids[rng.Intn(len(ids))]
			v := values[rng.Intn(len(values))]
			hook(id, 0, v)
			refHook(id, 0, v)
			// An or-sequence's conditions arrive in sub order, and a
			// run may break off early; absent IDs get a lone event.
			n := 1
			if sp := wantOr.Seqs[id]; sp != nil {
				n = 1 + rng.Intn(sp.N)
			}
			for sub := 0; sub < n; sub++ {
				b := int64(rng.Intn(2))
				orHook(id, sub, b)
				refOr(id, sub, b)
			}
		}
		if !reflect.DeepEqual(prof.Seqs, wantCounts) {
			t.Fatalf("trial %d: range counts differ from the map-lookup hook's", trial)
		}
		if !reflect.DeepEqual(orProf.Seqs, wantOr.Seqs) {
			t.Fatalf("trial %d: or-sequence counts differ from the map-lookup hook's", trial)
		}
	}
}
