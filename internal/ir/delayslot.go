package ir

// Branch delay slots. The paper's SPARC targets execute one instruction
// after every control transfer; the compiler fills that slot with a
// useful instruction when it can and with a nop otherwise. The paper
// applies reordering before delay-slot filling and observes the
// interaction both ways ("sometimes delay slots would be filled from the
// other successor and would not execute a useful instruction" — the
// stated cause of hyphen's regression).
//
// We model the slot at the cost level: FillDelaySlots decides, per
// terminator, whether its slot would hold a useful instruction, and the
// interpreter counts a SlotNop for every executed transfer whose slot is
// not useful on the path taken. Instructions are never actually moved, so
// semantics and the instruction counts of Tables 4/8 are untouched; the
// machine cycle model (Table 7) charges the nops.

// SlotFill describes what a transfer's delay slot holds.
type SlotFill int

const (
	// SlotNone: no useful instruction could fill the slot; it holds a
	// nop that executes on every path.
	SlotNone SlotFill = iota
	// SlotAlways: an instruction from before the transfer fills the
	// slot; useful on every path.
	SlotAlways
	// SlotFallthru: filled from the fall-through successor; useful only
	// when a conditional branch is not taken.
	SlotFallthru
	// SlotTaken: filled from the branch target (an annulled slot in
	// SPARC terms); useful only when the branch is taken.
	SlotTaken
)

func (s SlotFill) String() string {
	switch s {
	case SlotAlways:
		return "always"
	case SlotFallthru:
		return "fallthru"
	case SlotTaken:
		return "taken"
	default:
		return "nop"
	}
}

// FillDelaySlots decides each terminator's slot fill. Call after the
// final Linearize; layout does not change afterwards.
func (p *Program) FillDelaySlots() {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.Term.Slot = fillFor(b)
		}
	}
}

// fillFor chooses the best available fill for b's terminator.
func fillFor(b *Block) SlotFill {
	// An instruction from the block itself fills the slot on every
	// path. For a conditional branch it must not be the comparison the
	// branch consumes (nor write its operands, since it would then move
	// across the compare); for an indirect jump it must not define the
	// index register.
	if candidateFromBlock(b) {
		return SlotAlways
	}
	switch b.Term.Kind {
	case TermBr:
		// Fill from a successor: prefer the fall-through (executes more
		// often in loop-free runs of a reordered chain, where branches
		// out are the exceptional path), then the annulled taken side.
		if firstUsefulInst(b.Term.Next) {
			return SlotFallthru
		}
		if firstUsefulInst(b.Term.Taken) {
			return SlotTaken
		}
	case TermGoto:
		if firstUsefulInst(b.Term.Taken) {
			// Filling from the only successor is useful on every path.
			return SlotAlways
		}
	}
	return SlotNone
}

// candidateFromBlock reports whether some instruction of b can move into
// the slot.
func candidateFromBlock(b *Block) bool {
	insts := b.Insts
	// Walk backwards past the final compare (which must stay put for a
	// conditional branch) looking for a movable instruction.
	i := len(insts) - 1
	if b.Term.Kind == TermBr {
		for i >= 0 && insts[i].Op == Cmp {
			i--
		}
	}
	for ; i >= 0; i-- {
		in := &insts[i]
		switch in.Op {
		case Prof, ProfCond, Nop:
			continue
		case Cmp:
			// A compare whose flags feed this block's own branch (or a
			// successor's) cannot move past the branch.
			return false
		}
		// The instruction must not define a register the terminator
		// still needs.
		if b.Term.Kind == TermIJmp && !b.Term.Index.IsImm {
			if d := in.Def(); d == b.Term.Index.Reg {
				return false
			}
		}
		if b.Term.Kind == TermRet && !b.Term.Val.IsImm {
			if d := in.Def(); d == b.Term.Val.Reg {
				return false
			}
		}
		if b.Term.Kind == TermBr {
			// Moving the instruction across the compare requires it not
			// to define the compared registers.
			if d := in.Def(); d != NoReg {
				for j := i + 1; j < len(insts); j++ {
					if insts[j].Op != Cmp {
						continue
					}
					if (!insts[j].A.IsImm && insts[j].A.Reg == d) ||
						(!insts[j].B.IsImm && insts[j].B.Reg == d) {
						return false
					}
				}
			}
		}
		return true
	}
	return false
}

// firstUsefulInst reports whether the successor starts with an
// instruction that could be hoisted into the slot (anything but
// instrumentation; compares qualify, they just re-execute harmlessly in
// the model).
func firstUsefulInst(b *Block) bool {
	for i := range b.Insts {
		switch b.Insts[i].Op {
		case Prof, ProfCond, Nop:
			continue
		default:
			return true
		}
	}
	return false
}
