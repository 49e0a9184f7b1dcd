// Package opt implements the conventional optimizations the paper applies
// before (and re-applies after) branch reordering: constant folding and
// propagation, copy propagation, dead code elimination, unreachable-code
// elimination, branch chaining, basic-block merging, and dead/redundant
// comparison elimination. Code repositioning lives in ir.Linearize.
package opt

import "branchreorder/internal/ir"

// bitset is a fixed-size register set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i ir.Reg) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) set(i ir.Reg) { b[i/64] |= 1 << (uint(i) % 64) }

func (b bitset) clear(i ir.Reg) { b[i/64] &^= 1 << (uint(i) % 64) }

// orInto ors src into b.
func (b bitset) orInto(src bitset) {
	for i := range b {
		b[i] |= src[i]
	}
}

func (b bitset) copyFrom(src bitset) { copy(b, src) }

// bitsets is n bitsets of one width in one allocation.
type bitsets struct {
	w    int // words per set
	bits []uint64
}

func newBitsets(n, nbits int) bitsets {
	w := (nbits + 63) / 64
	return bitsets{w, make([]uint64, n*w)}
}

// at returns set i, which aliases the arena.
func (s bitsets) at(i int) bitset { return s.bits[i*s.w : (i+1)*s.w : (i+1)*s.w] }

// instUses appends the registers read by an instruction.
func instUses(in *ir.Inst, dst []ir.Reg) []ir.Reg {
	add := func(o ir.Operand) {
		if !o.IsImm {
			dst = append(dst, o.Reg)
		}
	}
	switch in.Op {
	case ir.Mov, ir.Neg, ir.Not, ir.Ld, ir.PutChar, ir.PutInt, ir.Prof:
		add(in.A)
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Cmp, ir.St, ir.ProfCond:
		add(in.A)
		add(in.B)
	case ir.Call:
		for _, a := range in.Args {
			add(a)
		}
	}
	return dst
}

// termUses appends the registers read by a terminator.
func termUses(t *ir.Term, dst []ir.Reg) []ir.Reg {
	switch t.Kind {
	case ir.TermIJmp:
		if !t.Index.IsImm {
			dst = append(dst, t.Index.Reg)
		}
	case ir.TermRet:
		if !t.Val.IsImm {
			dst = append(dst, t.Val.Reg)
		}
	}
	return dst
}

// sideEffectFree reports whether deleting the instruction (when its result
// is unused) preserves behaviour of well-defined programs. Loads are
// treated as removable: a dead load can only matter by trapping, and
// removing the trap of an erroneous program is acceptable here (C gives
// such programs no semantics either).
func sideEffectFree(in *ir.Inst) bool {
	switch in.Op {
	case ir.Mov, ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or,
		ir.Xor, ir.Shl, ir.Shr, ir.Neg, ir.Not, ir.Ld, ir.Nop:
		return true
	default:
		return false
	}
}

// liveness computes the live-in register set of every block, indexed by
// Block.ID. Each block's transfer is summarized first as the registers it
// reads before writing (use) and the registers it writes (def), so the
// fixpoint iterates over whole words: in = use ∪ (out − def), where out
// is the union of the successors' live-in sets.
func liveness(f *ir.Func) bitsets {
	n := ir.IDBound(f)
	sets := newBitsets(3*n+1, f.NRegs)
	var regs []ir.Reg
	for _, b := range f.Blocks {
		use, def := sets.at(n+b.ID), sets.at(2*n+b.ID)
		regs = termUses(&b.Term, regs[:0])
		for _, r := range regs {
			use.set(r)
		}
		for j := len(b.Insts) - 1; j >= 0; j-- {
			inst := &b.Insts[j]
			if r := inst.Def(); r != ir.NoReg {
				use.clear(r)
				def.set(r)
			}
			regs = instUses(inst, regs[:0])
			for _, r := range regs {
				use.set(r)
			}
		}
	}
	out := sets.at(3 * n)
	var succs []*ir.Block
	for changed := true; changed; {
		changed = false
		// Reverse block order converges faster for mostly-forward CFGs.
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			liveOut(out, sets, b, &succs)
			in, use, def := sets.at(b.ID), sets.at(n+b.ID), sets.at(2*n+b.ID)
			for w := range in {
				if nw := in[w] | use[w] | out[w]&^def[w]; nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	sets.bits = sets.bits[:n*sets.w]
	return sets
}

// liveOut sets out to the union of the live-in sets of b's successors;
// succs is scratch space.
func liveOut(out bitset, liveIn bitsets, b *ir.Block, succs *[]*ir.Block) {
	clear(out)
	*succs = b.Term.Succs((*succs)[:0])
	for _, s := range *succs {
		out.orInto(liveIn.at(s.ID))
	}
}
