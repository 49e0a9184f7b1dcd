package core

import (
	"fmt"

	"branchreorder/internal/ir"
)

// Common-successor branch reordering: the paper's first future-work
// extension (Section 10, Figure 14). A sequence of consecutive branches
// with a common successor — the shape short-circuit || and && chains
// lower to — can be reordered using profile data even when the branches
// test different variables, as long as the sequence has no intervening
// side effects. Unlike nonoverlapping range conditions, several branches
// may be true for one execution, so the profile records the joint outcome
// distribution with an array of combination counters; the paper judges
// this reasonable for sequences of up to 7 branches.

// MaxOrConds bounds the combination counter array (2^7 counters), as the
// paper suggests.
const MaxOrConds = 7

// OrCond is one branch of a common-successor sequence: a pure
// compare-and-branch whose Rel (normalized) sends control to the common
// successor when it holds.
type OrCond struct {
	Block *ir.Block
	A, B  ir.Operand
	Rel   ir.Rel // control reaches the common successor iff "A Rel B"
}

// OrSequence is a detected sequence of branches with a common successor.
type OrSequence struct {
	ID      int
	F       *ir.Func
	Head    *ir.Block
	PreHead *ir.Block // split-off instruction prefix, if any
	Conds   []*OrCond
	Common  *ir.Block // reached when any condition holds
	Fall    *ir.Block // reached when none holds
}

func (s *OrSequence) String() string {
	out := fmt.Sprintf("orseq %d in %s:", s.ID, s.F.Name)
	for _, c := range s.Conds {
		out += fmt.Sprintf(" (%s %s %s)", c.A, c.Rel, c.B)
	}
	out += fmt.Sprintf(" -> B%d else B%d", s.Common.ID, s.Fall.ID)
	return out
}

// DetectCommonSucc finds common-successor sequences, skipping blocks in
// consumed (typically the blocks already claimed by range-condition
// detection, which takes precedence). Each detected sequence is
// instrumented with ProfCond pseudo-instructions at its head. IDs start
// at firstID; the program must be re-linearized before execution.
func DetectCommonSucc(p *ir.Program, firstID int, consumed map[*ir.Block]bool) []*OrSequence {
	var seqs []*OrSequence
	var buf ir.PredBuf // one function's predecessors at a time
	id := firstID
	for _, f := range p.Funcs {
		for _, s := range detectOrFunc(f, buf.Preds(f), consumed) {
			s.ID = id
			id++
			instrumentOr(s)
			seqs = append(seqs, s)
		}
	}
	return seqs
}

func detectOrFunc(f *ir.Func, preds [][]*ir.Block, consumed map[*ir.Block]bool) []*OrSequence {
	d := &detector{
		f:         f,
		preds:     preds,
		needFlags: ir.NeedFlags(f),
		marked:    map[*ir.Block]bool{},
	}
	for b := range consumed {
		d.marked[b] = true
	}
	var seqs []*OrSequence
	blocks := append([]*ir.Block(nil), f.Blocks...)
	for _, b := range blocks {
		if d.marked[b] {
			continue
		}
		seq := d.tryOrSequence(b)
		if seq == nil {
			continue
		}
		splitOrHead(f, seq)
		for _, c := range seq.Conds {
			d.marked[c.Block] = true
		}
		d.marked[seq.Head] = true
		seqs = append(seqs, seq)
	}
	return seqs
}

// parseOrCond decodes block b as a pure compare-and-branch (prefix
// instructions are allowed only when isHead, as they are split off).
func (d *detector) parseOrCond(b *ir.Block, isHead bool) (cmp ir.Inst, ok bool) {
	if b.Term.Kind != ir.TermBr || len(b.Insts) == 0 {
		return ir.Inst{}, false
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Op != ir.Cmp {
		return ir.Inst{}, false
	}
	if !isHead && len(b.Insts) != 1 {
		// Intervening side effects disqualify a common-successor
		// sequence entirely (Section 10: moving them out would destroy
		// the common successor).
		return ir.Inst{}, false
	}
	for i := 0; i < len(b.Insts)-1; i++ {
		if op := b.Insts[i].Op; op == ir.Prof || op == ir.ProfCond {
			return ir.Inst{}, false
		}
	}
	return last, true
}

// tryOrSequence roots a common-successor sequence at head, trying both of
// the head branch's successors as the candidate common successor and
// keeping the longer chain.
func (d *detector) tryOrSequence(head *ir.Block) *OrSequence {
	headCmp, ok := d.parseOrCond(head, true)
	if !ok {
		return nil
	}
	var best *OrSequence
	for _, commonOnTaken := range []bool{true, false} {
		seq := d.growOrChain(head, headCmp, commonOnTaken)
		if seq != nil && (best == nil || len(seq.Conds) > len(best.Conds)) {
			best = seq
		}
	}
	return best
}

func (d *detector) growOrChain(head *ir.Block, headCmp ir.Inst, commonOnTaken bool) *OrSequence {
	common := d.resolve(head.Term.Taken)
	cont := d.resolve(head.Term.Next)
	rel := head.Term.Rel
	if !commonOnTaken {
		common, cont = cont, common
		rel = rel.Negate()
	}
	if ir.At(d.needFlags, common) {
		return nil
	}
	conds := []*OrCond{{Block: head, A: headCmp.A, B: headCmp.B, Rel: rel}}
	prev := head
	for len(conds) < MaxOrConds {
		if cont == common || !d.extendable(cont, []*ir.Block{prev}, nil) {
			break
		}
		cmp, ok := d.parseOrCond(cont, false)
		if !ok {
			break
		}
		var nrel ir.Rel
		var next *ir.Block
		switch {
		case d.resolve(cont.Term.Taken) == common:
			nrel = cont.Term.Rel
			next = d.resolve(cont.Term.Next)
		case d.resolve(cont.Term.Next) == common:
			nrel = cont.Term.Rel.Negate()
			next = d.resolve(cont.Term.Taken)
		default:
			break
		}
		if next == nil {
			break
		}
		conds = append(conds, &OrCond{Block: cont, A: cmp.A, B: cmp.B, Rel: nrel})
		prev = cont
		cont = next
	}
	if len(conds) < 2 {
		return nil
	}
	if ir.At(d.needFlags, cont) {
		return nil
	}
	return &OrSequence{F: d.f, Head: head, Conds: conds, Common: common, Fall: cont}
}

// extendable is shared with range detection; the visited map may be nil
// for the linear or-chains (a repeated block would fail the
// entered-only-from check anyway, since its predecessor inside the chain
// differs).

// splitOrHead moves the head's instruction prefix into its own block, as
// splitHead does for range sequences.
func splitOrHead(f *ir.Func, seq *OrSequence) {
	head := seq.Head
	cmpIdx := len(head.Insts) - 1
	if cmpIdx == 0 {
		return
	}
	cond := f.NewBlock()
	cond.Insts = append(cond.Insts, head.Insts[cmpIdx:]...)
	cond.Term = head.Term
	head.Insts = head.Insts[:cmpIdx]
	head.Term = ir.Term{Kind: ir.TermGoto, Taken: cond}
	seq.Conds[0].Block = cond
	seq.PreHead = head
	seq.Head = cond
}

// instrumentOr inserts one ProfCond per condition at the head, recording
// the joint outcomes ("all combinations of branch results would have to
// be obtained using an array of profile counters").
func instrumentOr(seq *OrSequence) {
	profs := make([]ir.Inst, len(seq.Conds))
	for i, c := range seq.Conds {
		profs[i] = ir.Inst{
			Op: ir.ProfCond, SeqID: seq.ID, Sub: i,
			A: c.A, B: c.B, Rel: c.Rel,
		}
	}
	seq.Head.Insts = append(profs, seq.Head.Insts...)
}

// OrSeqProfile counts the joint branch-outcome combinations of one
// sequence: Combos[mask] is the number of head executions in which
// exactly the conditions whose bit is set in mask held.
type OrSeqProfile struct {
	N      int
	Combos []uint64
	Total  uint64

	pendingMask int
	pendingSubs int
}

// OrProfile accumulates combination counts for every or-sequence.
type OrProfile struct {
	Seqs map[int]*OrSeqProfile
}

// NewOrProfile prepares storage for the given sequences.
func NewOrProfile(seqs []*OrSequence) *OrProfile {
	p := &OrProfile{Seqs: map[int]*OrSeqProfile{}}
	for _, s := range seqs {
		p.Seqs[s.ID] = &OrSeqProfile{N: len(s.Conds), Combos: make([]uint64, 1<<len(s.Conds))}
	}
	return p
}

// Hook returns the interpreter callback. The ProfCond instructions of a
// sequence execute consecutively in sub order, so the hook assembles the
// outcome mask incrementally and commits it on the last condition.
func (p *OrProfile) Hook() func(seqID, sub int, v int64) {
	bySeq, firstID := byID(p.Seqs)
	return func(seqID, sub int, v int64) {
		i := seqID - firstID
		if i < 0 || i >= len(bySeq) || bySeq[i] == nil {
			return
		}
		sp := bySeq[i]
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

// OrCost evaluates the expected number of branches executed per entry
// under the given test order: each entry runs tests until one holds (exit
// to the common successor) or all fail (fall through).
func OrCost(sp *OrSeqProfile, order []int) float64 {
	if sp.Total == 0 {
		return 0
	}
	var sum uint64
	for mask, count := range sp.Combos {
		if count == 0 {
			continue
		}
		tests := len(order)
		for pos, idx := range order {
			if mask&(1<<idx) != 0 {
				tests = pos + 1
				break
			}
		}
		sum += count * uint64(tests)
	}
	return float64(sum) / float64(sp.Total)
}

// SelectOr finds the test order minimizing the expected branch count by
// exhaustive search over permutations (n <= 7, so at most 5040 orders —
// the joint distribution makes greedy ratios unsound here).
func SelectOr(sp *OrSeqProfile) (best []int, cost float64) {
	order := make([]int, sp.N)
	for i := range order {
		order[i] = i
	}
	best = append([]int(nil), order...)
	cost = OrCost(sp, order)
	permute(order, func(perm []int) {
		if c := OrCost(sp, perm); c < cost-1e-12 {
			cost = c
			best = append(best[:0], perm...)
		}
	})
	return best, cost
}

// OrResult reports the decision for one common-successor sequence.
type OrResult struct {
	Seq      *OrSequence
	Applied  bool
	Reason   SkipReason
	Order    []int
	OrigCost float64 // expected branches per entry, original order
	NewCost  float64
}

// ReorderOr selects the cheapest test order for the sequence and rewrites
// the control flow when it beats the original order.
func ReorderOr(seq *OrSequence, sp *OrSeqProfile) OrResult {
	res := OrResult{Seq: seq}
	if sp == nil || sp.Total == 0 {
		res.Reason = ReasonNotExecuted
		return res
	}
	identity := make([]int, len(seq.Conds))
	for i := range identity {
		identity[i] = i
	}
	res.OrigCost = OrCost(sp, identity)
	order, cost := SelectOr(sp)
	res.Order = order
	res.NewCost = cost
	if cost >= res.OrigCost-1e-9 {
		res.Reason = ReasonNoImprovement
		return res
	}

	// Emit the reordered chain back to front.
	f := seq.F
	next := seq.Fall
	for i := len(order) - 1; i >= 0; i-- {
		c := seq.Conds[order[i]]
		b := f.NewBlock()
		b.Insts = []ir.Inst{{Op: ir.Cmp, A: c.A, B: c.B}}
		b.Term = ir.Term{Kind: ir.TermBr, Rel: c.Rel, Taken: seq.Common, Next: next}
		next = b
	}
	// Splice, as for range sequences: the old head becomes a trampoline.
	seq.Head.Insts = nil
	seq.Head.Term = ir.Term{Kind: ir.TermGoto, Taken: next}
	res.Applied = true
	res.Reason = ReasonApplied
	return res
}
