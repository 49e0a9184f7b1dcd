package opt

import "branchreorder/internal/ir"

// GlobalPropagate propagates copies and constants across basic blocks for
// registers with exactly one static definition. If register d is defined
// once as "mov d, a" where a is an immediate, or a register that is itself
// never redefined after its own single definition, then every use of d
// dominated by the definition can read a directly. Beyond shrinking code,
// this pass is what keeps a branch variable in one register across an
// if-else chain, which the sequence detector depends on.
//
// The rounds rewrite uses only: no definition, terminator or edge
// changes, so the definition sites are found once per call, and the
// dominators are computed once, when first needed, from predecessors
// filled into buf.
func GlobalPropagate(f *ir.Func, buf *ir.PredBuf) bool {
	g := &globalProp{f: f, buf: buf, defCount: make([]int, f.NRegs), defAt: make([]defSite, f.NRegs),
		repl: make([]ir.Operand, f.NRegs), hasRepl: make([]bool, f.NRegs)}
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if d := b.Insts[i].Def(); d != ir.NoReg {
				g.defCount[d]++
				g.defAt[d] = defSite{b, i}
			}
		}
	}
	changed := false
	// A handful of rounds lets copy chains collapse.
	for round := 0; round < 4; round++ {
		if !g.round() {
			break
		}
		changed = true
	}
	return changed
}

type defSite struct {
	b *ir.Block
	i int // instruction index; terminators never define registers
}

// globalProp is the state of one GlobalPropagate call.
type globalProp struct {
	f        *ir.Func
	buf      *ir.PredBuf
	defCount []int
	defAt    []defSite
	dom      *domInfo     // nil until first needed
	repl     []ir.Operand // the round's replacement for each register
	hasRepl  []bool
}

// dominates reports whether d dominates u (see domInfo.dominates).
func (g *globalProp) dominates(d, u defSite) bool {
	if g.dom == nil {
		g.dom = computeDominators(g.f, g.buf.Preds(g.f))
	}
	return g.dom.dominates(d.b, d.i, u.b, u.i)
}

// round rewrites every use a single-def copy dominates, and reports
// whether it rewrote any.
func (g *globalProp) round() bool {
	f, defCount, defAt := g.f, g.defCount, g.defAt
	// stable(r) at a point after r's single def: r never changes again.
	// Parameters with zero defs are stable everywhere.
	isParam := func(r ir.Reg) bool { return int(r) < f.NParams }

	// For each single-def "mov d, a", decide the replacement operand.
	clear(g.hasRepl)
	for r := 0; r < f.NRegs; r++ {
		if defCount[r] != 1 {
			continue
		}
		site := defAt[r]
		in := &site.b.Insts[site.i]
		if in.Op != ir.Mov || in.Dst != ir.Reg(r) {
			continue
		}
		a := in.A
		switch {
		case a.IsImm:
			// ok
		case a.Reg == ir.Reg(r):
			continue // self-copy
		case defCount[a.Reg] == 0 && isParam(a.Reg):
			// ok: parameter, constant for the whole invocation
		case defCount[a.Reg] == 1:
			// Source must already hold its final value at d's def.
			if !g.dominates(defAt[a.Reg], site) {
				continue
			}
		default:
			continue
		}
		g.repl[r], g.hasRepl[r] = a, true
	}

	changed := false
	replaceOp := func(b *ir.Block, pos int, o *ir.Operand) {
		if o.IsImm || !g.hasRepl[o.Reg] || !g.dominates(defAt[o.Reg], defSite{b, pos}) {
			return
		}
		*o = g.repl[o.Reg]
		changed = true
	}

	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == ir.Prof || in.Op == ir.ProfCond {
				continue // tied to the detector's notion of the branch variable
			}
			switch in.Op {
			case ir.Mov, ir.Neg, ir.Not, ir.Ld, ir.PutChar, ir.PutInt:
				replaceOp(b, i, &in.A)
			case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or,
				ir.Xor, ir.Shl, ir.Shr, ir.Cmp, ir.St:
				replaceOp(b, i, &in.A)
				replaceOp(b, i, &in.B)
			case ir.Call:
				for j := range in.Args {
					replaceOp(b, i, &in.Args[j])
				}
			}
		}
		tpos := len(b.Insts)
		switch b.Term.Kind {
		case ir.TermIJmp:
			replaceOp(b, tpos, &b.Term.Index)
		case ir.TermRet:
			replaceOp(b, tpos, &b.Term.Val)
		}
	}
	return changed
}
