package core

import (
	"fmt"
	"math"
	"sort"
)

// BuildArms populates the sequence's ordering candidates: one arm per
// explicit range condition (in original order) followed by one per default
// range (Section 5, Figure 7). Must be called once after detection,
// before profiling.
func (s *Sequence) BuildArms() {
	explicit := make([]Range, len(s.Conds))
	for i, c := range s.Conds {
		explicit[i] = c.R
	}
	s.Arms = s.Arms[:0]
	s.ArmCond = s.ArmCond[:0]
	// An explicit condition's arm may be left untested (omitted) only if
	// no later condition carries side effects: the shared fall-through
	// edge executes every sunk side effect, which is only correct for
	// values that would have traversed the whole original sequence.
	sideAfter := make([]bool, len(s.Conds)+1)
	for i := len(s.Conds) - 1; i >= 0; i-- {
		sideAfter[i] = sideAfter[i+1] || len(s.Conds[i].SideEffects) > 0
	}
	for i, c := range s.Conds {
		s.Arms = append(s.Arms, Arm{
			R:        c.R,
			Target:   c.Exit.ID,
			C:        float64(c.R.CondCost()),
			Explicit: true,
			MustTest: sideAfter[i+1],
		})
		s.ArmCond = append(s.ArmCond, i)
	}
	for _, g := range Gaps(explicit) {
		s.Arms = append(s.Arms, Arm{
			R:      g,
			Target: s.DefaultTarget.ID,
			C:      float64(g.CondCost()),
		})
		s.ArmCond = append(s.ArmCond, len(s.Conds))
	}
}

// SeqProfile holds the training counts for one sequence: Counts is
// parallel to Sequence.Arms.
type SeqProfile struct {
	Counts []uint64
	Total  uint64
}

// Profile accumulates training-run counts for every detected sequence.
type Profile struct {
	Seqs map[int]*SeqProfile

	lookup map[int]lookupTable
}

type lookupEntry struct {
	r   Range
	arm int
}

// lookupTable is one sequence's count storage and its arms sorted by
// range start.
type lookupTable struct {
	sp      *SeqProfile
	entries []lookupEntry
}

// NewProfile prepares count storage for the given sequences (whose Arms
// must be built).
func NewProfile(seqs []*Sequence) *Profile {
	p := &Profile{
		Seqs:   make(map[int]*SeqProfile, len(seqs)),
		lookup: make(map[int]lookupTable, len(seqs)),
	}
	for _, s := range seqs {
		if len(s.Arms) == 0 {
			panic(fmt.Sprintf("core: sequence %d has no arms; call BuildArms first", s.ID))
		}
		sp := &SeqProfile{Counts: make([]uint64, len(s.Arms))}
		p.Seqs[s.ID] = sp
		tbl := make([]lookupEntry, len(s.Arms))
		for i, a := range s.Arms {
			tbl[i] = lookupEntry{a.R, i}
		}
		sort.Slice(tbl, func(i, j int) bool { return tbl[i].r.Lo < tbl[j].r.Lo })
		p.lookup[s.ID] = lookupTable{sp, tbl}
	}
	return p
}

// ArmsByLo returns sequence id's arm lower bounds in ascending order and
// the arm each starts, as Hook searches them. A training run's
// interp.ArmTable counts from them.
func (p *Profile) ArmsByLo(id int) (los []int64, arms []int) {
	tbl := p.lookup[id].entries
	los, arms = make([]int64, len(tbl)), make([]int, len(tbl))
	for i, e := range tbl {
		los[i], arms[i] = e.r.Lo, e.arm
	}
	return los, arms
}

// byID returns m's values in a slice indexed by key minus the least key,
// and that key. Detection numbers sequences densely from its firstID, so
// a training hook finds a sequence's counts without a map lookup.
func byID[T any](m map[int]T) ([]T, int) {
	lo, hi := math.MaxInt, math.MinInt
	for id := range m {
		lo, hi = min(lo, id), max(hi, id)
	}
	if len(m) == 0 {
		return nil, 0
	}
	s := make([]T, hi-lo+1)
	for id, v := range m {
		s[id-lo] = v
	}
	return s, lo
}

// Hook returns the interpreter callback that attributes each execution of
// a sequence head to the arm whose range contains the branch variable's
// value. The arms of a sequence cover the whole domain, so every value
// lands in exactly one arm. The sub index is unused for range-condition
// sequences (common-successor sequences use OrProfile instead). Training
// counts in the engine's arm tables instead (interp.ArmTable); the hook
// is the reference the tests hold those counts to.
func (p *Profile) Hook() func(seqID, sub int, v int64) {
	lookup, firstID := byID(p.lookup)
	return func(seqID, sub int, v int64) {
		i := seqID - firstID
		if i < 0 || i >= len(lookup) || lookup[i].sp == nil {
			return
		}
		sp, tbl := lookup[i].sp, lookup[i].entries
		// Binary search for the first entry with Lo > v; the one before
		// it has the greatest Lo <= v.
		lo, hi := 0, len(tbl)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); tbl[m].r.Lo > v {
				hi = m
			} else {
				lo = m + 1
			}
		}
		idx := lo - 1
		if idx < 0 || !tbl[idx].r.Contains(v) {
			return // unreachable for covering arms; be defensive
		}
		sp.Counts[tbl[idx].arm]++
		sp.Total++
	}
}

// AttachProfile fills the arms' exit probabilities (Definition 9) from
// the training counts. With a zero total every probability stays zero and
// the caller skips the sequence, as the paper did for sequences the
// training input never executed.
func (s *Sequence) AttachProfile(sp *SeqProfile) {
	if sp == nil || sp.Total == 0 {
		for i := range s.Arms {
			s.Arms[i].P = 0
		}
		return
	}
	for i := range s.Arms {
		s.Arms[i].P = float64(sp.Counts[i]) / float64(sp.Total)
	}
}
