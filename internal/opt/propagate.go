package opt

import "branchreorder/internal/ir"

// Propagate performs local (per-block) constant and copy propagation plus
// constant folding. It reports whether anything changed.
func Propagate(f *ir.Func) bool {
	changed := false
	var known []knownVal // each block's, in turn
	for _, b := range f.Blocks {
		if propagateBlock(b, &known) {
			changed = true
		}
	}
	return changed
}

// knownVal records that register r holds v: an immediate or a copy of
// another register.
type knownVal struct {
	r ir.Reg
	v ir.Operand
}

func propagateBlock(b *ir.Block, scratch *[]knownVal) bool {
	known := (*scratch)[:0]
	changed := false

	invalidate := func(d ir.Reg) {
		kept := known[:0]
		for _, kv := range known {
			if kv.r != d && (kv.v.IsImm || kv.v.Reg != d) {
				kept = append(kept, kv)
			}
		}
		known = kept
	}
	subst := func(o ir.Operand) ir.Operand {
		for _, kv := range known {
			if !o.IsImm && kv.r == o.Reg {
				return kv.v
			}
		}
		return o
	}

	for i := range b.Insts {
		in := &b.Insts[i]
		// Substitute known values into the operand positions.
		switch in.Op {
		case ir.Mov, ir.Neg, ir.Not, ir.Ld, ir.PutChar, ir.PutInt:
			if n := subst(in.A); n != in.A {
				in.A = n
				changed = true
			}
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or,
			ir.Xor, ir.Shl, ir.Shr, ir.Cmp, ir.St:
			if n := subst(in.A); n != in.A {
				in.A = n
				changed = true
			}
			if n := subst(in.B); n != in.B {
				in.B = n
				changed = true
			}
		case ir.Call:
			for j, a := range in.Args {
				if n := subst(a); n != a {
					in.Args[j] = n
					changed = true
				}
			}
		case ir.Prof, ir.ProfCond:
			// Leave Prof operands alone: the detector ties the
			// instrumented register to the sequence's branch variable.
		}
		// Fold when fully constant.
		if folded, ok := foldInst(in); ok {
			*in = folded
			changed = true
		}
		// Update the value map.
		d := in.Def()
		if d == ir.NoReg {
			continue
		}
		invalidate(d)
		if in.Op == ir.Mov {
			src := in.A
			if src.IsImm || src.Reg != d {
				known = append(known, knownVal{d, src})
			}
		}
	}
	// Substitute into the terminator.
	switch b.Term.Kind {
	case ir.TermIJmp:
		if n := subst(b.Term.Index); n != b.Term.Index {
			b.Term.Index = n
			changed = true
		}
	case ir.TermRet:
		if n := subst(b.Term.Val); n != b.Term.Val {
			b.Term.Val = n
			changed = true
		}
	}
	*scratch = known
	return changed
}

// foldInst folds an instruction whose operands are all immediate into a
// Mov of the result. Division by zero is left alone (it must trap).
func foldInst(in *ir.Inst) (ir.Inst, bool) {
	switch in.Op {
	case ir.Neg:
		if in.A.IsImm {
			return ir.Inst{Op: ir.Mov, Dst: in.Dst, A: ir.Imm(-in.A.Imm)}, true
		}
	case ir.Not:
		if in.A.IsImm {
			return ir.Inst{Op: ir.Mov, Dst: in.Dst, A: ir.Imm(^in.A.Imm)}, true
		}
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr:
		if !in.A.IsImm || !in.B.IsImm {
			// Algebraic identities with one constant.
			if id, ok := foldIdentity(in); ok {
				return id, true
			}
			return ir.Inst{}, false
		}
		a, b := in.A.Imm, in.B.Imm
		var v int64
		switch in.Op {
		case ir.Add:
			v = a + b
		case ir.Sub:
			v = a - b
		case ir.Mul:
			v = a * b
		case ir.Div:
			if b == 0 {
				return ir.Inst{}, false
			}
			v = a / b
		case ir.Rem:
			if b == 0 {
				return ir.Inst{}, false
			}
			v = a % b
		case ir.And:
			v = a & b
		case ir.Or:
			v = a | b
		case ir.Xor:
			v = a ^ b
		case ir.Shl:
			v = a << (uint64(b) & 63)
		case ir.Shr:
			v = a >> (uint64(b) & 63)
		}
		return ir.Inst{Op: ir.Mov, Dst: in.Dst, A: ir.Imm(v)}, true
	}
	return ir.Inst{}, false
}

// foldIdentity simplifies x+0, x-0, x*1, x*0, x&0, x|0, x^0, x<<0, x>>0.
func foldIdentity(in *ir.Inst) (ir.Inst, bool) {
	mov := func(o ir.Operand) (ir.Inst, bool) {
		return ir.Inst{Op: ir.Mov, Dst: in.Dst, A: o}, true
	}
	if in.B.IsImm {
		switch {
		case in.B.Imm == 0 && (in.Op == ir.Add || in.Op == ir.Sub ||
			in.Op == ir.Or || in.Op == ir.Xor || in.Op == ir.Shl || in.Op == ir.Shr):
			return mov(in.A)
		case in.B.Imm == 1 && (in.Op == ir.Mul || in.Op == ir.Div):
			return mov(in.A)
		case in.B.Imm == 0 && (in.Op == ir.Mul || in.Op == ir.And):
			return mov(ir.Imm(0))
		}
	}
	if in.A.IsImm {
		switch {
		case in.A.Imm == 0 && (in.Op == ir.Add || in.Op == ir.Or || in.Op == ir.Xor):
			return mov(in.B)
		case in.A.Imm == 1 && in.Op == ir.Mul:
			return mov(in.B)
		case in.A.Imm == 0 && (in.Op == ir.Mul || in.Op == ir.And):
			return mov(ir.Imm(0))
		}
	}
	return ir.Inst{}, false
}
