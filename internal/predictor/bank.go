package predictor

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Bank simulates a battery of bimodal predictors over one branch stream
// in a single pass. Every counter table is a flat byte slice carved from
// one backing array, and the update rule is bit-for-bit the Bimodal one
// (as a transition-table lookup, see transitions), so mispredict counts
// are identical; Bimodal stays as the reference implementation and the
// one-predictor API.
//
// Most of the battery is redundant work: among predictors of one counter
// width, every table with more entries than the highest branch ID seen
// so far is indexed by the ID itself and holds the same counters. The
// bank therefore simulates one representative per such alias-equivalence
// class — the class's smallest table — and splits a class lazily, when
// an event's ID first reaches the representative's size (or an ID is
// negative, which aliases differently in every size). Up to that event
// every member's state equals the representative's, so the split copies
// the representative's counters and mispredict count into each member
// that has just become distinct, and the counts stay exact.
type Bank struct {
	preds []bankPred

	// groups partitions preds by counter width; classes never span two
	// widths.
	groups []bankGroup

	// rep maps each predictor to the representative whose table and
	// counts stand for it; rep[i] == i for the simulated ones.
	rep []int

	// active lists the representatives: the only tables Observe and
	// Replay update.
	active []*bankPred

	// bound is the smallest collapsed-class representative's entry
	// count; an event with uint(id) >= bound (a large or negative ID)
	// splits classes before it is observed. ^uint(0) once nothing is
	// left to split.
	bound uint

	// Branches is the number of events observed — the same for every
	// predictor in the bank.
	Branches uint64
}

// bankPred is one predictor's configuration and state inside a Bank.
type bankPred struct {
	name  string
	mask  uint // len(table)-1 when that is a power of two, else 0
	pow2  bool
	init  uint8
	lut   *[512]uint16 // transitions[bits]
	table []uint8

	mispredicts uint64
}

// transitions[w] is the w-bit saturating counter's update rule as one
// lookup: entry taken<<8 | ctr holds the next counter in its low byte
// and, in bit 8, whether ctr mispredicted the outcome (predict taken
// when ctr is in the upper half). Observe and Replay share it, so the
// bank has one update rule, free of data-dependent host branches.
var transitions = buildTransitions()

func buildTransitions() *[9][512]uint16 {
	var t [9][512]uint16
	for w := 1; w <= 8; w++ {
		max, thresh := 1<<w-1, 1<<(w-1)
		for ctr := 0; ctr < 256; ctr++ {
			for taken := 0; taken < 2; taken++ {
				next := ctr
				if taken == 1 && ctr < max {
					next++
				} else if taken == 0 && ctr > 0 {
					next--
				}
				var miss int
				if (ctr >= thresh) != (taken == 1) {
					miss = 1
				}
				t[w][taken<<8|ctr] = uint16(next | miss<<8)
			}
		}
	}
	return &t
}

// step applies one outcome to counter idx; tk is 1<<8 if taken, else 0.
func (p *bankPred) step(idx, tk uint) {
	s := p.lut[uint(p.table[idx])|tk]
	p.table[idx] = uint8(s)
	p.mispredicts += uint64(s >> 8)
}

// bankGroup is the predictors of one counter width, ordered by entry
// count. order[split:] is the collapsed class — every table larger than
// all IDs seen — represented by order[split]; order[:split] are
// simulated on their own.
type bankGroup struct {
	order []int
	split int
}

// Spec describes one predictor of a Bank: a (0,Bits) predictor with
// Entries table entries, exactly as NewBimodal takes them.
type Spec struct {
	Bits    int
	Entries int
}

// Table6Specs is the (0,1)/(0,2) × 32..2048 battery of the paper's
// Table 6, in presentation order.
func Table6Specs() []Spec {
	var out []Spec
	for _, bits := range []int{1, 2} {
		for entries := 32; entries <= 2048; entries *= 2 {
			out = append(out, Spec{Bits: bits, Entries: entries})
		}
	}
	return out
}

// NewBank builds a bank from the given specs. Counter semantics match
// NewBimodal: width 1..8 bits, counters start weakly not taken.
func NewBank(specs []Spec) *Bank {
	total := 0
	for _, s := range specs {
		if s.Bits < 1 || s.Bits > 8 {
			panic(fmt.Sprintf("predictor: counter width %d out of range", s.Bits))
		}
		if s.Entries <= 0 {
			panic("predictor: table must have at least one entry")
		}
		total += s.Entries
	}
	n := len(specs)
	ints := make([]int, 2*n)
	b := &Bank{
		preds:  make([]bankPred, n),
		rep:    ints[:n:n],
		active: make([]*bankPred, 0, n),
	}
	backing := make([]uint8, total)
	off := 0
	for i, s := range specs {
		p := &b.preds[i]
		p.name = "(0," + strconv.Itoa(s.Bits) + ")x" + strconv.Itoa(s.Entries)
		p.pow2 = s.Entries&(s.Entries-1) == 0
		if p.pow2 {
			p.mask = uint(s.Entries - 1)
		}
		p.lut = &transitions[s.Bits]
		if s.Bits > 1 {
			p.init = 1<<(s.Bits-1) - 1 // weakly not taken
		}
		p.table = backing[off : off+s.Entries : off+s.Entries]
		off += s.Entries
	}

	// Group by width, each group ordered by entry count, so regroup only
	// moves split points and allocates nothing.
	order := ints[n:]
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Or(cmp.Compare(specs[x].Bits, specs[y].Bits),
			cmp.Compare(specs[x].Entries, specs[y].Entries))
	})
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && specs[order[hi]].Bits == specs[order[lo]].Bits {
			hi++
		}
		b.groups = append(b.groups, bankGroup{order: order[lo:hi:hi]})
		lo = hi
	}
	b.Reset()
	return b
}

// table6 is Table6Specs, built once: NewBank only reads its specs.
var table6 = Table6Specs()

// NewTable6Bank builds the full Table-6 sweep bank.
func NewTable6Bank() *Bank { return NewBank(table6) }

// Len reports how many predictors the bank simulates.
func (b *Bank) Len() int { return len(b.preds) }

// Name identifies predictor i, e.g. "(0,2)x2048".
func (b *Bank) Name(i int) string { return b.preds[i].name }

// MispredictsOf reports predictor i's mispredicted branches.
func (b *Bank) MispredictsOf(i int) uint64 { return b.preds[b.rep[i]].mispredicts }

// Mispredicts returns every predictor's mispredict count keyed by name —
// the map sim.Measurement carries.
func (b *Bank) Mispredicts() map[string]uint64 {
	out := make(map[string]uint64, len(b.preds))
	for i := range b.preds {
		out[b.preds[i].name] = b.MispredictsOf(i)
	}
	return out
}

// Observe records one executed branch in every predictor of the bank.
// Branch IDs from linearization are dense non-negative ints below the
// smallest collapsed table, and every Table-6 size is a power of two,
// so indexing is a mask over the representatives alone; the general
// case falls back to Bimodal's modulo rule.
func (b *Bank) Observe(id int, taken bool) {
	b.Branches++
	if uint(id) >= b.bound {
		b.regroup(id)
	}
	var tk uint
	if taken {
		tk = 1 << 8
	}
	if id >= 0 {
		u := uint(id)
		for _, p := range b.active {
			if p.pow2 {
				p.step(u&p.mask, tk)
			} else {
				p.step(u%uint(len(p.table)), tk)
			}
		}
		return
	}
	for _, p := range b.active {
		idx := id % len(p.table)
		if idx < 0 {
			idx += len(p.table)
		}
		p.step(uint(idx), tk)
	}
}

// Replay observes a chunk of encoded branch events, as interp's
// OnBranches delivers them (see interp.BranchEvent): it is
// Observe(int(e>>1), e&1 == 1) for each event, in order. It regroups at
// exactly the event whose ID first reaches bound, as Observe would, and
// between regroups updates each representative in one tight loop over
// the events. Replay allocates nothing.
func (b *Bank) Replay(events []uint32) {
	b.Branches += uint64(len(events))
	for len(events) > 0 {
		cut := len(events)
		if b.bound < 1<<31 { // an event ID is at most 1<<31 - 1
			lim := uint32(b.bound) << 1
			for i, e := range events {
				if e >= lim {
					cut = i
					break
				}
			}
		}
		b.replayActive(events[:cut])
		if cut == len(events) {
			return
		}
		// The new bound exceeds this ID, so the loop moves past it.
		b.regroup(int(events[cut] >> 1))
		events = events[cut:]
	}
}

// replayActive applies events, none of which splits a class, to every
// representative; a non-power-of-two table keeps the modulo rule.
func (b *Bank) replayActive(events []uint32) {
	for _, p := range b.active {
		if p.pow2 {
			replay1(p, events)
		} else {
			replayMod(p, events)
		}
	}
}

// replay1 applies events to one power-of-two table.
func replay1(p *bankPred, events []uint32) {
	t, lut := p.table, p.lut
	mask := uint(len(t) - 1)
	_ = t[mask] // one bounds check here proves every t[i&mask] in range
	var miss uint64
	for _, e := range events {
		i := uint(e>>1) & mask
		s := lut[uint(t[i])|uint(e&1)<<8]
		t[i] = uint8(s)
		miss += uint64(s >> 8)
	}
	p.mispredicts += miss
}

// replayMod applies events to a table of any size by the modulo rule.
func replayMod(p *bankPred, events []uint32) {
	n := uint(len(p.table))
	for _, e := range events {
		p.step(uint(e>>1)%n, uint(e&1)<<8)
	}
}

// regroup splits the classes that the event with the given ID, not yet
// observed, breaks up: every table with at most id entries, or every
// table at all when id is negative. The ID exceeds every one seen
// before, so each class member's state still equals its
// representative's, padded with initial counters beyond the
// representative's size; a member that becomes distinct (or the class's
// next representative) starts from that copy.
func (b *Bank) regroup(id int) {
	for gi := range b.groups {
		g := &b.groups[gi]
		k := g.split
		if id < 0 {
			k = len(g.order)
		}
		for k < len(g.order) && len(b.preds[g.order[k]].table) <= id {
			k++
		}
		if k == g.split {
			continue
		}
		old := &b.preds[g.order[g.split]]
		for j := g.split + 1; j <= k && j < len(g.order); j++ {
			q := &b.preds[g.order[j]]
			n := copy(q.table, old.table)
			for x := n; x < len(q.table); x++ {
				q.table[x] = q.init
			}
			q.mispredicts = old.mispredicts
		}
		g.split = k
	}
	b.relink()
}

// relink derives rep, active and bound from the groups' split points.
func (b *Bank) relink() {
	b.bound = ^uint(0)
	for _, g := range b.groups {
		for j, i := range g.order {
			b.rep[i] = g.order[min(j, g.split)]
		}
		if g.split < len(g.order) {
			b.bound = min(b.bound, uint(len(b.preds[g.order[g.split]].table)))
		}
	}
	b.active = b.active[:0]
	for i := range b.preds {
		if b.rep[i] == i {
			b.active = append(b.active, &b.preds[i])
		}
	}
}

// Reset restores initial counters, clears counts and collapses every
// class again.
func (b *Bank) Reset() {
	b.Branches = 0
	for i := range b.preds {
		p := &b.preds[i]
		p.mispredicts = 0
		for j := range p.table {
			p.table[j] = p.init
		}
	}
	for gi := range b.groups {
		b.groups[gi].split = 0
	}
	b.relink()
}
