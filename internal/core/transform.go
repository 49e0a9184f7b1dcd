package core

import (
	"branchreorder/internal/ir"
)

// SkipReason explains why a detected sequence was not reordered.
type SkipReason int

const (
	// ReasonApplied: the transformation was applied.
	ReasonApplied SkipReason = iota
	// ReasonNotExecuted: the training input never reached the sequence —
	// the paper's most common cause of unreordered sequences.
	ReasonNotExecuted
	// ReasonNoImprovement: the selected ordering is no cheaper than the
	// original one under the profile and cost estimates.
	ReasonNoImprovement
)

func (r SkipReason) String() string {
	switch r {
	case ReasonApplied:
		return "applied"
	case ReasonNotExecuted:
		return "not executed in training run"
	default:
		return "no improvement over original order"
	}
}

// Result reports what happened to one sequence.
type Result struct {
	Seq      *Sequence
	Applied  bool
	Reason   SkipReason
	Ordering Ordering

	OrigBranches int // branches in the original sequence
	NewBranches  int // branches in the reordered sequence (0 if skipped)
	OrigCost     float64
	NewCost      float64
}

// TransformOptions disable individual design choices of the
// transformation, for ablation studies. The zero value is the paper's
// full transformation.
type TransformOptions struct {
	// NoBoundOrder disables Section 7's first improvement: both-bounded
	// range conditions always test their lower bound first.
	NoBoundOrder bool
	// NoCmpReuse disables Section 7's second improvement: comparison
	// constants are always encoded canonically, so the redundant-
	// comparison elimination pass (Figure 9) finds nothing to delete.
	NoCmpReuse bool
	// NoTailDup disables Section 8's default-target duplication: the
	// fall-through edge always jumps to the default target's original
	// code.
	NoTailDup bool
}

// ReorderWith selects the best ordering for the sequence under the
// given profile and, when it beats the original order, rewrites the
// control flow (Section 8): a replicated, reordered chain of range
// conditions is built, side effects are sunk onto the exit edges
// (Theorem 2), the default target may be tail-duplicated to avoid an
// unconditional jump, and the old head is rewritten to enter the new
// chain, leaving the old condition blocks to dead-code elimination. The
// zero TransformOptions is the paper's full transformation; topt
// disables some of its design choices.
func ReorderWith(seq *Sequence, sp *SeqProfile, topt TransformOptions) Result {
	res := Result{Seq: seq, OrigBranches: seq.OrigBranches()}
	seq.AttachProfile(sp)
	if sp == nil || sp.Total == 0 {
		res.Reason = ReasonNotExecuted
		return res
	}

	// Cost of the original arrangement: explicit conditions in original
	// order, default ranges untested.
	var origExplicit, origOmitted []int
	for i := range seq.Arms {
		if seq.ArmCond[i] < len(seq.Conds) {
			origExplicit = append(origExplicit, i)
		} else {
			origOmitted = append(origOmitted, i)
		}
	}
	res.OrigCost = SeqCost(seq.Arms, origExplicit, origOmitted)

	sel := Select(seq.Arms)
	res.Ordering = sel
	res.NewCost = sel.Cost
	if sel.Cost >= res.OrigCost-1e-9 {
		res.Reason = ReasonNoImprovement
		return res
	}

	specs := buildSpecs(seq, sel, topt)
	emitChain(seq, sel, specs, topt)
	res.Applied = true
	res.Reason = ReasonApplied
	for _, sp := range specs {
		res.NewBranches += len(sp.tests)
	}
	return res
}

// sunkEffects returns the side effects that must run on an exit through
// the arm whose original condition index is k: the prefixes of conditions
// 1..k inclusive (condition 0 never has any, its prefix was split off).
// Default-range arms use k == len(Conds), collecting everything.
func (s *Sequence) sunkEffects(k int) []ir.Inst {
	var out []ir.Inst
	hi := k
	if hi >= len(s.Conds) {
		hi = len(s.Conds) - 1
	}
	for i := 1; i <= hi; i++ {
		for _, in := range s.Conds[i].SideEffects {
			out = append(out, ir.CloneInst(in))
		}
	}
	return out
}

// emitChain builds the reordered chain and splices it in place of the old
// sequence head.
func emitChain(seq *Sequence, sel Ordering, specs []testSpec, topt TransformOptions) {
	f := seq.F

	// The fall-through destination after all explicit tests is the
	// target of the omitted arms — any target can serve as the default
	// of the reordered sequence (Section 6). With nothing omitted the
	// fall-through is unreachable (the explicit tests exhaust the
	// domain) and the original default stands in.
	fallTarget := seq.DefaultTarget
	if len(sel.Omitted) > 0 {
		fallTarget = seq.armTarget(sel.Omitted[0])
	}
	defaultEntry := buildDefaultEdge(seq, fallTarget, topt)

	// Exit edge for an explicit arm: side effects first, then the
	// target, duplicated from it when that avoids a jump for free.
	exitEdge := func(armIdx int) *ir.Block {
		target := seq.armTarget(armIdx)
		se := seq.sunkEffects(seq.ArmCond[armIdx])
		if len(se) == 0 {
			return target
		}
		b := f.NewBlock()
		b.Insts = se
		b.Term = ir.Term{Kind: ir.TermGoto, Taken: target}
		return b
	}

	// Build the chain back to front so each test knows its fall-through.
	// A one-test arm branches to its exit and falls through to the next
	// arm; a two-test (bounded range) arm first branches *out* to the
	// next arm when the value misses the near bound, then branches to the
	// exit when it is within the far bound.
	next := defaultEntry
	newCmp := func(konst int64) []ir.Inst {
		return []ir.Inst{{Op: ir.Cmp, A: ir.R(seq.V), B: ir.Imm(konst)}}
	}
	for i := len(sel.Explicit) - 1; i >= 0; i-- {
		exit := exitEdge(sel.Explicit[i])
		spec := specs[i]
		last := spec.tests[len(spec.tests)-1]
		b := f.NewBlock()
		b.Insts = newCmp(last.konst)
		b.Term = ir.Term{Kind: ir.TermBr, Rel: last.rel, Taken: exit, Next: next}
		if len(spec.tests) == 2 {
			first := spec.tests[0]
			b0 := f.NewBlock()
			b0.Insts = newCmp(first.konst)
			b0.Term = ir.Term{Kind: ir.TermBr, Rel: first.rel, Taken: next, Next: b}
			b = b0
		}
		next = b
	}
	chainEntry := next

	// Splice: the old head becomes a trampoline into the new chain, so
	// every predecessor (and any stale pointer held by other sequences)
	// funnels through correctly; cleanup chains the goto away.
	seq.Head.Insts = nil
	seq.Head.Term = ir.Term{Kind: ir.TermGoto, Taken: chainEntry}
}

// armTarget resolves the exit block of an arm: the condition's exit for
// explicit arms, the sequence's default target for default-range arms.
func (s *Sequence) armTarget(armIdx int) *ir.Block {
	if k := s.ArmCond[armIdx]; k < len(s.Conds) {
		return s.Conds[k].Exit
	}
	return s.DefaultTarget
}

// buildDefaultEdge constructs the block control falls into after every
// explicit test fails: the sunk side effects followed by the chosen
// default target's code, duplicated "until an unconditional jump, return,
// or indirect jump" when small enough, to avoid a fresh unconditional
// jump (Section 8). Side effects on this edge are the full set: an
// explicit arm may be left untested only when every side effect after its
// condition is empty, which makes the full set correct for it too.
func buildDefaultEdge(seq *Sequence, fallTarget *ir.Block, topt TransformOptions) *ir.Block {
	f := seq.F
	se := seq.sunkEffects(len(seq.Conds))
	var dupInsts []ir.Inst
	var dupTerm ir.Term
	ok := false
	if !topt.NoTailDup {
		dupInsts, dupTerm, ok = tailDuplicate(fallTarget)
	}
	if !ok && len(se) == 0 {
		return fallTarget
	}
	b := f.NewBlock()
	b.Insts = se
	if ok {
		b.Insts = append(b.Insts, dupInsts...)
		b.Term = dupTerm
	} else {
		b.Term = ir.Term{Kind: ir.TermGoto, Taken: fallTarget}
	}
	return b
}

// tailDupMaxInsts bounds how much default-target code is duplicated.
const tailDupMaxInsts = 8

// tailDuplicate clones the default target when it is a small block ending
// in a return. The paper duplicated up to any unconditional transfer, but
// its code generator had already fixed block placement; under our
// explicit linearizer a goto-terminated default target can usually be
// laid out directly after the chain (a free fall-through), and
// duplicating it would steal that slot while the copy pays the jump — the
// ablation study showed exactly that on cb, ctags and ptx. A
// return-terminated target, by contrast, is always a pure win to inline.
// Blocks containing profiling instrumentation (another sequence's head)
// are never duplicated.
func tailDuplicate(b *ir.Block) ([]ir.Inst, ir.Term, bool) {
	if len(b.Insts) > tailDupMaxInsts {
		return nil, ir.Term{}, false
	}
	if b.Term.Kind != ir.TermRet {
		return nil, ir.Term{}, false
	}
	for i := range b.Insts {
		if b.Insts[i].Op == ir.Prof || b.Insts[i].Op == ir.ProfCond {
			return nil, ir.Term{}, false
		}
	}
	insts := make([]ir.Inst, len(b.Insts))
	for i := range b.Insts {
		insts[i] = ir.CloneInst(b.Insts[i])
	}
	return insts, b.Term, true
}

// StripProf removes every profiling pseudo-instruction; the final
// executables the evaluation measures are uninstrumented.
func StripProf(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			kept := b.Insts[:0]
			for i := range b.Insts {
				if op := b.Insts[i].Op; op != ir.Prof && op != ir.ProfCond {
					kept = append(kept, b.Insts[i])
				}
			}
			b.Insts = kept
		}
	}
}
