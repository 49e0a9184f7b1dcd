package opt

import "branchreorder/internal/ir"

// SimplifyControl performs branch chaining (edges through empty goto
// blocks are retargeted), folds conditional branches whose comparison is
// between two constants, collapses branches with identical destinations,
// and merges single-predecessor goto chains, for which it fills f's
// predecessors into buf. It reports whether anything changed.
func SimplifyControl(f *ir.Func, buf *ir.PredBuf) bool {
	changed := false
	if chainBranches(f) {
		changed = true
	}
	if foldConstBranches(f) {
		changed = true
	}
	if collapseTrivialBranches(f) {
		changed = true
	}
	// Drop unreachable blocks before merging: a dead predecessor would
	// otherwise block a single-predecessor merge.
	if ir.RemoveUnreachable(f) {
		changed = true
	}
	if mergeBlocks(f, buf.Preds(f)) {
		changed = true
	}
	return changed
}

// chainBranches retargets every edge through a chain of empty goto
// blocks to the chain's end, stopping where a chain runs into a cycle.
func chainBranches(f *ir.Func) bool {
	seen := make([]int, ir.IDBound(f)) // by Block.ID: the last walk that passed the block
	walk := 0
	changed := false
	retarget := func(t **ir.Block) {
		walk++
		b := *t
		for len(b.Insts) == 0 && b.Term.Kind == ir.TermGoto && seen[b.ID] != walk {
			seen[b.ID] = walk
			b = b.Term.Taken
		}
		if b != *t {
			*t = b
			changed = true
		}
	}
	for _, b := range f.Blocks {
		t := &b.Term
		switch t.Kind {
		case ir.TermGoto:
			retarget(&t.Taken)
		case ir.TermBr:
			retarget(&t.Taken)
			retarget(&t.Next)
		case ir.TermIJmp:
			for i := range t.Targets {
				retarget(&t.Targets[i])
			}
		}
	}
	return changed
}

// foldConstBranches rewrites a conditional branch into a goto when the
// block's own final comparison is between two immediates. The comparison
// itself is left for deadCmps, since other blocks may still consume the
// flags.
func foldConstBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term.Kind != ir.TermBr {
			continue
		}
		var lastCmp *ir.Inst
		for i := len(b.Insts) - 1; i >= 0; i-- {
			if b.Insts[i].Op == ir.Cmp {
				lastCmp = &b.Insts[i]
				break
			}
		}
		if lastCmp == nil || !lastCmp.A.IsImm || !lastCmp.B.IsImm {
			continue
		}
		target := b.Term.Next
		if b.Term.Rel.Holds(lastCmp.A.Imm, lastCmp.B.Imm) {
			target = b.Term.Taken
		}
		b.Term = ir.Term{Kind: ir.TermGoto, Taken: target}
		changed = true
	}
	return changed
}

// collapseTrivialBranches turns a conditional branch whose two successors
// are identical into a goto.
func collapseTrivialBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBr && b.Term.Taken == b.Term.Next {
			b.Term = ir.Term{Kind: ir.TermGoto, Taken: b.Term.Taken}
			changed = true
		}
	}
	return changed
}

// mergeBlocks merges b -> c when b ends in a goto to c and c has no other
// predecessors. A merge leaves every other block's predecessor count as
// it was (c's successors trade c for b, which had no other edge), so the
// counts are taken once, as preds (f's predecessor lists); the merged b
// is tried again at once, and no block before it can have become
// mergeable.
func mergeBlocks(f *ir.Func, preds [][]*ir.Block) bool {
	gone := make([]bool, len(preds)) // by Block.ID
	entry := f.Entry()
	changed := false
	for _, b := range f.Blocks {
		for !gone[b.ID] && b.Term.Kind == ir.TermGoto {
			c := b.Term.Taken
			if c == b || c == entry || len(preds[c.ID]) != 1 {
				break
			}
			b.Insts = append(b.Insts, c.Insts...)
			b.Term = c.Term
			gone[c.ID] = true
			changed = true
		}
	}
	if changed {
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if !gone[b.ID] {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
	return changed
}
