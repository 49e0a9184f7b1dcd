package opt

import "branchreorder/internal/ir"

// DeadCodeElim removes side-effect-free instructions whose results are
// never used, and comparisons whose condition codes are never consumed.
// It reports whether anything changed.
func DeadCodeElim(f *ir.Func) bool {
	changed := deadInsts(f)
	if deadCmps(f) {
		changed = true
	}
	return changed
}

func deadInsts(f *ir.Func) bool {
	changed := false
	live := newBitset(f.NRegs)
	var regs []ir.Reg
	var succs []*ir.Block
	// Iterate: removing one instruction can make another dead.
	for {
		liveIn := liveness(f)
		any := false
		for _, b := range f.Blocks {
			liveOut(live, liveIn, b, &succs)
			regs = termUses(&b.Term, regs[:0])
			for _, r := range regs {
				live.set(r)
			}
			for j := len(b.Insts) - 1; j >= 0; j-- {
				inst := &b.Insts[j]
				d := inst.Def()
				dead := d != ir.NoReg && !live.get(d) && sideEffectFree(inst)
				if dead {
					inst.Op = ir.Nop
					inst.Args = nil
					any = true
					continue
				}
				if d != ir.NoReg {
					live.clear(d)
				}
				regs = instUses(inst, regs[:0])
				for _, r := range regs {
					live.set(r)
				}
			}
		}
		if !any {
			break
		}
		changed = true
		removeNops(f)
	}
	return changed
}

// deadCmps removes comparisons whose flags are never consumed: any Cmp
// followed by another Cmp in the same block is dead, and the last Cmp of a
// block is dead when the block ends in no conditional branch and no
// successor needs flags on entry (ir.NeedFlags).
func deadCmps(f *ir.Func) bool {
	needIn := ir.NeedFlags(f)
	var succs []*ir.Block
	needOut := func(b *ir.Block) bool {
		if b.Term.Kind == ir.TermBr {
			return true
		}
		succs = b.Term.Succs(succs[:0])
		for _, s := range succs {
			if needIn[s.ID] {
				return true
			}
		}
		return false
	}
	any := false
	for _, b := range f.Blocks {
		lastCmp := -1
		for j := range b.Insts {
			if b.Insts[j].Op != ir.Cmp {
				continue
			}
			if lastCmp >= 0 {
				b.Insts[lastCmp].Op = ir.Nop // shadowed by this later Cmp
				any = true
			}
			lastCmp = j
		}
		if lastCmp >= 0 && !needOut(b) {
			b.Insts[lastCmp].Op = ir.Nop
			any = true
		}
	}
	if any {
		removeNops(f)
	}
	return any
}

func removeNops(f *ir.Func) {
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for i := range b.Insts {
			if b.Insts[i].Op != ir.Nop {
				kept = append(kept, b.Insts[i])
			}
		}
		b.Insts = kept
	}
}
