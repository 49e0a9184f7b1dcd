// Package core implements the paper's contribution: detection of
// reorderable sequences of range conditions (Section 3, Figure 4), their
// normalization (Section 4), profiling support (Section 5), selection of
// the most beneficial ordering (Section 6, Equations 1-4, Figure 8), the
// post-ordering improvements (Section 7), and the application of the
// transformation to the control flow (Section 8, Figure 10).
package core

import (
	"fmt"
	"sort"

	"branchreorder/internal/ir"
)

// Range is a set of contiguous integer values [Lo, Hi], inclusive on both
// ends (paper Definition 1). The full machine domain is
// [ir.MinVal, ir.MaxVal].
type Range struct {
	Lo, Hi int64
}

// FullRange covers every representable value.
var FullRange = Range{ir.MinVal, ir.MaxVal}

func (r Range) String() string {
	switch {
	case r.Lo == r.Hi:
		return fmt.Sprintf("[%d]", r.Lo)
	case r.Lo == ir.MinVal && r.Hi == ir.MaxVal:
		return "[MIN..MAX]"
	case r.Lo == ir.MinVal:
		return fmt.Sprintf("[MIN..%d]", r.Hi)
	case r.Hi == ir.MaxVal:
		return fmt.Sprintf("[%d..MAX]", r.Lo)
	default:
		return fmt.Sprintf("[%d..%d]", r.Lo, r.Hi)
	}
}

// Valid reports Lo <= Hi.
func (r Range) Valid() bool { return r.Lo <= r.Hi }

// Contains reports whether v lies in the range.
func (r Range) Contains(v int64) bool { return r.Lo <= v && v <= r.Hi }

// Overlaps reports whether two ranges share any value (Definition 5
// negated).
func (r Range) Overlaps(o Range) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Single reports whether the range holds exactly one value.
func (r Range) Single() bool { return r.Lo == r.Hi }

// BoundedBothEnds reports whether the range needs two comparisons to test
// (Table 1 Form 4): bounded on both sides and wider than a single value.
func (r Range) BoundedBothEnds() bool {
	return r.Lo != ir.MinVal && r.Hi != ir.MaxVal && r.Lo != r.Hi
}

// NumBranches is the number of conditional branches needed to test
// membership (Table 1): 1 for single values and half-unbounded ranges,
// 2 for ranges bounded on both ends.
func (r Range) NumBranches() int {
	if r.BoundedBothEnds() {
		return 2
	}
	return 1
}

// CondCost estimates the instructions needed to test the range when the
// variable is already in a register: a comparison and a branch per bound
// (paper Definition 10; the estimate is deliberately conservative, both
// branches of a Form 4 condition are assumed executed).
func (r Range) CondCost() int { return 2 * r.NumBranches() }

// NonOverlapping reports whether r is disjoint from every range in set.
func NonOverlapping(r Range, set []Range) bool {
	for _, s := range set {
		if r.Overlaps(s) {
			return false
		}
	}
	return true
}

// Gaps returns the minimal set of ranges covering every value of the full
// domain not covered by ranges (the paper's default ranges, Definition 8:
// "the compiler calculated these remaining ranges by sorting the explicit
// ranges and adding the minimum number of ranges to cover the remaining
// values"). ranges must be pairwise nonoverlapping.
func Gaps(ranges []Range) []Range {
	sorted := append([]Range(nil), ranges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	var gaps []Range
	cursor := int64(ir.MinVal)
	cursorValid := true // cursor is the lowest value not yet covered
	for _, r := range sorted {
		if cursorValid && cursor < r.Lo {
			gaps = append(gaps, Range{cursor, r.Lo - 1})
		}
		if r.Hi == ir.MaxVal {
			cursorValid = false
		} else {
			cursor = r.Hi + 1
		}
	}
	if cursorValid {
		gaps = append(gaps, Range{cursor, ir.MaxVal})
	}
	return gaps
}
