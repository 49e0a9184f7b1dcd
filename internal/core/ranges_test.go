package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"branchreorder/internal/ir"
)

func TestRangeBasics(t *testing.T) {
	r := Range{10, 20}
	if !r.Contains(10) || !r.Contains(20) || r.Contains(9) || r.Contains(21) {
		t.Error("Contains wrong at boundaries")
	}
	if !r.Overlaps(Range{20, 30}) || r.Overlaps(Range{21, 30}) {
		t.Error("Overlaps wrong at boundaries")
	}
	if !r.BoundedBothEnds() || r.NumBranches() != 2 || r.CondCost() != 4 {
		t.Error("bounded-range classification wrong")
	}
	single := Range{5, 5}
	if single.BoundedBothEnds() || single.NumBranches() != 1 || single.CondCost() != 2 {
		t.Error("single-value classification wrong")
	}
	lowOpen := Range{ir.MinVal, 7}
	if lowOpen.BoundedBothEnds() || lowOpen.NumBranches() != 1 {
		t.Error("half-unbounded classification wrong")
	}
}

func TestGapsSimple(t *testing.T) {
	gaps := Gaps([]Range{{10, 20}, {30, 30}})
	want := []Range{{ir.MinVal, 9}, {21, 29}, {31, ir.MaxVal}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
	}
}

func TestGapsEdges(t *testing.T) {
	if g := Gaps(nil); len(g) != 1 || g[0] != FullRange {
		t.Errorf("Gaps(nil) = %v, want full domain", g)
	}
	if g := Gaps([]Range{FullRange}); len(g) != 0 {
		t.Errorf("Gaps(full) = %v, want empty", g)
	}
	g := Gaps([]Range{{ir.MinVal, 0}})
	if len(g) != 1 || g[0] != (Range{1, ir.MaxVal}) {
		t.Errorf("Gaps = %v", g)
	}
	g = Gaps([]Range{{0, ir.MaxVal}})
	if len(g) != 1 || g[0] != (Range{ir.MinVal, -1}) {
		t.Errorf("Gaps = %v", g)
	}
	// Adjacent ranges leave no gap between them.
	g = Gaps([]Range{{0, 5}, {6, 10}})
	if len(g) != 2 {
		t.Errorf("adjacent ranges: gaps = %v", g)
	}
}

// randomDisjointRanges builds up to n pairwise-disjoint ranges over a
// small domain (plus occasional unbounded ends).
func randomDisjointRanges(rng *rand.Rand, n int) []Range {
	bounds := map[int64]bool{}
	for len(bounds) < 2*n {
		bounds[rng.Int63n(2000)-1000] = true
	}
	var vals []int64
	for v := range bounds {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var out []Range
	for i := 0; i+1 < len(vals); i += 2 {
		if rng.Intn(3) == 0 {
			continue // leave a gap in place of this range
		}
		out = append(out, Range{vals[i], vals[i+1]})
	}
	if rng.Intn(4) == 0 && len(out) > 0 {
		out[0].Lo = ir.MinVal
	}
	if rng.Intn(4) == 0 && len(out) > 0 {
		out[len(out)-1].Hi = ir.MaxVal
	}
	return out
}

func TestGapsPropertyCoverAndDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		ranges := randomDisjointRanges(rng, 1+rng.Intn(8))
		gaps := Gaps(ranges)
		// Gaps must be valid and disjoint from the inputs and each other.
		all := append(append([]Range(nil), ranges...), gaps...)
		for i, r := range all {
			if !r.Valid() {
				t.Fatalf("invalid range %v (trial %d)", r, trial)
			}
			for j := i + 1; j < len(all); j++ {
				if r.Overlaps(all[j]) {
					t.Fatalf("overlap %v and %v (trial %d, ranges=%v gaps=%v)",
						r, all[j], trial, ranges, gaps)
				}
			}
		}
		if !CoversDomain(all) {
			t.Fatalf("ranges+gaps do not cover the domain (trial %d): %v + %v", trial, ranges, gaps)
		}
	}
}

func TestGapsQuickSampledMembership(t *testing.T) {
	// Every sampled value lies in exactly one of ranges ∪ gaps.
	f := func(seed int64, probe int16) bool {
		rng := rand.New(rand.NewSource(seed))
		ranges := randomDisjointRanges(rng, 1+rng.Intn(6))
		gaps := Gaps(ranges)
		v := int64(probe)
		n := 0
		for _, r := range append(append([]Range(nil), ranges...), gaps...) {
			if r.Contains(v) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNonOverlapping(t *testing.T) {
	set := []Range{{0, 10}, {20, 30}}
	if NonOverlapping(Range{5, 15}, set) {
		t.Error("overlap not detected")
	}
	if !NonOverlapping(Range{11, 19}, set) {
		t.Error("disjoint range rejected")
	}
}

// merged coalesces adjacent/overlapping ranges (helper for sanity checks).
func merged(ranges []Range) []Range {
	if len(ranges) == 0 {
		return nil
	}
	s := append([]Range(nil), ranges...)
	sort.Slice(s, func(i, j int) bool { return s[i].Lo < s[j].Lo })
	out := []Range{s[0]}
	for _, r := range s[1:] {
		last := &out[len(out)-1]
		if last.Hi != ir.MaxVal && r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		if r.Lo <= last.Hi { // overlap at MaxVal edge
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// CoversDomain reports whether the union of ranges is the full domain.
func CoversDomain(ranges []Range) bool {
	m := merged(ranges)
	return len(m) == 1 && m[0] == FullRange
}
