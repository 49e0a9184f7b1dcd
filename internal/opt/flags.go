package opt

import "branchreorder/internal/ir"

// Redundant comparison elimination (paper Section 7, Figure 9): a Cmp is
// deleted when the condition codes already hold the result of comparing
// the same operands, either because an identical Cmp appears earlier in
// the block or because every predecessor exits with identical flags. The
// reordering transformation exposes many such comparisons when a default
// range becomes explicit next to a neighbouring range of the same
// variable.

// flagsDesc describes what the condition codes hold: a comparison of two
// operand expressions whose registers have not been redefined since.
type flagsDesc struct {
	state int      // 0 = unset (top), 1 = known, 2 = unknown (bottom)
	cmp   *ir.Inst // when known: a Cmp of those operands (only its A and B are read)
}

var (
	descTop     = flagsDesc{state: 0}
	descUnknown = flagsDesc{state: 2}
)

// same reports whether two descriptors describe the same flags: two known
// ones compare their operands, not which Cmp they name.
func (d flagsDesc) same(o flagsDesc) bool {
	return d.state == o.state && (d.state != 1 || d.cmp.A == o.cmp.A && d.cmp.B == o.cmp.B)
}

func (d flagsDesc) meet(o flagsDesc) flagsDesc {
	switch {
	case d.state == 0:
		return o
	case o.state == 0 || d.same(o):
		return d
	default:
		return descUnknown
	}
}

// usesReg reports whether the descriptor's operands read r.
func (d flagsDesc) usesReg(r ir.Reg) bool {
	if d.state != 1 {
		return false
	}
	a, b := d.cmp.A, d.cmp.B
	return (!a.IsImm && a.Reg == r) || (!b.IsImm && b.Reg == r)
}

// flagsTransfer runs the block's instructions over an incoming descriptor
// and returns the outgoing one. When kill is set it turns each comparison
// the incoming state makes redundant into a Nop, and reports whether it
// did.
func flagsTransfer(b *ir.Block, in flagsDesc, kill bool) (flagsDesc, bool) {
	d, killed := in, false
	for i := range b.Insts {
		inst := &b.Insts[i]
		if inst.Op == ir.Cmp {
			nd := flagsDesc{state: 1, cmp: inst}
			if kill && d.same(nd) {
				inst.Op = ir.Nop // A and B stay for descriptors naming it
				killed = true
				continue // flags unchanged; d already equals nd
			}
			d = nd
			continue
		}
		if r := inst.Def(); r != ir.NoReg && d.usesReg(r) {
			d = descUnknown
		}
	}
	return d, killed
}

// RedundantCmpElim removes comparisons whose result is already in the
// condition codes, filling f's predecessors into buf. It reports whether
// anything changed.
func RedundantCmpElim(f *ir.Func, buf *ir.PredBuf) bool {
	// in and out hold each block's entry and exit descriptors by
	// Block.ID; out is recomputed only when in changes.
	n := ir.IDBound(f)
	in, out := make([]flagsDesc, n), make([]flagsDesc, n)
	entry := f.Entry()
	for _, b := range f.Blocks {
		in[b.ID] = descTop
		if b == entry {
			in[b.ID] = descUnknown
		}
		out[b.ID], _ = flagsTransfer(b, in[b.ID], false)
	}
	preds := buf.Preds(f)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == entry {
				continue
			}
			d := descTop
			for _, p := range preds[b.ID] {
				d = d.meet(out[p.ID])
			}
			if !d.same(in[b.ID]) {
				in[b.ID] = d
				out[b.ID], _ = flagsTransfer(b, d, false)
				changed = true
			}
		}
	}
	any := false
	for _, b := range f.Blocks {
		if _, killed := flagsTransfer(b, in[b.ID], true); killed {
			any = true
		}
	}
	if any {
		removeNops(f)
	}
	return any
}
