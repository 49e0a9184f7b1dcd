package interp

import "math/bits"

// armWindow is the widest span of values an ArmTable indexes densely.
// Every range sequence of the suite's programs spans at most 124.
const armWindow = 4096

// ArmTable counts one range sequence's training profile inside the
// engine: a Prof instruction of the sequence adds one to the counter of
// the arm whose range holds its value, with no OnProf call. The arms
// partition the int64 domain, as core.Sequence.BuildArms builds them,
// so arm arms[i] holds the values from los[i] up to los[i+1]-1, the
// first every value below los[1] and the last every value from its
// bound up.
//
// When the window from the second to the last bound spans at most
// armWindow values, a dense index maps each value to its arm, a value
// below the window clamped to the first arm's entry and one above it to
// the last's; a wider window is searched. The countdown keeps one head
// execution in rate, the first kept being execution first (0-based),
// as the profile sampler's EveryNth mode keeps those whose index mod
// rate equals its phase.
type ArmTable struct {
	los  []int64 // arm lower bounds, ascending
	arms []int   // arms[i] starts at los[i]

	// dense[i] is the arm of lo+i, for i up to span: lo is one below the
	// second bound and lo+span the last bound. nil past armWindow. lo is
	// kept as its order key.
	dense []int32
	lo    uint64
	span  uint64

	every uint64 // head executions skipped after each kept one: rate-1
	skip  uint64 // head executions still to skip before the next kept one

	counts []uint64
}

// orderKey maps int64 order onto uint64 order.
func orderKey(v int64) uint64 { return uint64(v) ^ 1<<63 }

// NewArmTable returns the table of a sequence whose arm arms[i] starts
// at lower bound los[i], the bounds ascending strictly. It counts into
// counts, indexed by arm, keeping head execution first and then one in
// rate (rate 0 counts as 1; first must be below rate).
func NewArmTable(los []int64, arms []int, counts []uint64, rate, first uint64) *ArmTable {
	lo, top := los[0], los[len(los)-1]
	if len(los) > 1 {
		lo = los[1] - 1
	}
	t := &ArmTable{
		los:    los,
		arms:   arms,
		lo:     orderKey(lo),
		span:   uint64(top) - uint64(lo),
		every:  max(rate, 1) - 1,
		skip:   first,
		counts: counts,
	}
	if t.span <= armWindow {
		t.dense = make([]int32, t.span+1)
		for i := range t.dense {
			t.dense[i] = int32(t.search(lo + int64(i)))
		}
	}
	return t
}

// Count records one execution of the sequence head with value v, as a
// Prof instruction of the sequence does on either engine.
func (t *ArmTable) Count(v int64) {
	if !t.countDense(v) {
		t.countSearch(v)
	}
}

// countDense is Count, unless v is kept and no dense index covers it:
// then it records nothing and reports false, for countSearch to record
// v. It makes no call, so it inlines into the closure engine's Prof
// closure, which spells Count out around it (its cost is at the
// compiler's inlining budget), and takes no branch on v, so no value
// mispredicts.
func (t *ArmTable) countDense(v int64) bool {
	if t.skip != 0 {
		t.skip--
		return true
	}
	t.skip = t.every
	// i is v-lo clamped to [0, span]; the borrows are v < lo and
	// v-lo > span.
	i, below := bits.Sub64(orderKey(v), t.lo, 0)
	i &^= -below
	_, above := bits.Sub64(t.span, i, 0)
	if i += (t.span - i) & -above; i < uint64(len(t.dense)) {
		t.counts[t.dense[i]]++
		return true
	}
	return false
}

// countSearch records v, a value countDense left, under the arm search
// finds.
func (t *ArmTable) countSearch(v int64) { t.counts[t.search(v)]++ }

// search returns the arm of v: that of the greatest bound not above v,
// or the first arm if there is none.
func (t *ArmTable) search(v int64) int {
	lo, hi := 0, len(t.los)-1
	for lo < hi {
		if m := int(uint(lo+hi+1) >> 1); t.los[m] > v {
			hi = m - 1
		} else {
			lo = m
		}
	}
	return t.arms[lo]
}

// armTable returns the table of sequence seqID, or nil if it has none.
func armTable(tables []*ArmTable, seqID int) *ArmTable {
	if uint(seqID) < uint(len(tables)) {
		return tables[seqID]
	}
	return nil
}
