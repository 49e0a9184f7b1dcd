// Package randprog generates random linearized IR programs: small CFGs
// with loops, calls, indirect jumps and reachable traps. The engine
// differential suite (internal/equiv) fuzzes the interpreters against
// each other with them.
//
// Generation is a pure function of the seed: the same seed yields a
// byte-identical program on every run and platform.
package randprog

import "branchreorder/internal/ir"

type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed*2862933555777941757 + 3037000493} }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// operand yields a register of the function (mostly) or an immediate in
// a range that includes 0 (so Div/Rem traps stay reachable) and values
// beyond memory bounds (so Ld/St traps stay reachable).
func (r *rng) operand(nRegs int) ir.Operand {
	if r.intn(3) == 0 {
		return ir.Imm(int64(r.intn(40) - 8))
	}
	return ir.R(ir.Reg(r.intn(nRegs)))
}

var straightOps = []ir.Op{
	ir.Mov, ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or,
	ir.Xor, ir.Shl, ir.Shr, ir.Neg, ir.Not, ir.Cmp, ir.Ld, ir.St,
	ir.GetChar, ir.PutChar, ir.PutInt,
}

// genFunc fills f with a random CFG. Functions may only call
// higher-indexed functions (callees), keeping the call graph acyclic so
// recursion cannot blow past the frame budget; loops come from branch
// and goto back-edges instead.
func genFunc(r *rng, f *ir.Func, callees []string) {
	nBlocks := 2 + r.intn(5)
	blocks := make([]*ir.Block, nBlocks)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for bi, b := range blocks {
		nInsts := r.intn(5)
		for i := 0; i < nInsts; i++ {
			var in ir.Inst
			if len(callees) > 0 && r.intn(8) == 0 {
				in = ir.Inst{Op: ir.Call, Callee: callees[r.intn(len(callees))]}
				if r.intn(6) == 0 {
					in.Callee = "nowhere" // unknown-callee trap parity
				}
				for a := r.intn(3); a > 0; a-- {
					in.Args = append(in.Args, r.operand(f.NRegs))
				}
				if r.intn(4) != 0 {
					in.Dst = ir.Reg(r.intn(f.NRegs))
				} else {
					in.Dst = ir.NoReg
				}
			} else if r.intn(10) == 0 {
				in = ir.Inst{Op: ir.ProfCond, SeqID: r.intn(4), Sub: r.intn(3),
					Rel: ir.Rel(r.intn(6)), A: r.operand(f.NRegs), B: r.operand(f.NRegs)}
			} else {
				in = ir.Inst{
					Op:  straightOps[r.intn(len(straightOps))],
					Dst: ir.Reg(r.intn(f.NRegs)),
					A:   r.operand(f.NRegs),
					B:   r.operand(f.NRegs),
				}
			}
			b.Insts = append(b.Insts, in)
		}
		switch {
		case bi == nBlocks-1 || r.intn(4) == 0:
			b.Term = ir.Term{Kind: ir.TermRet, Val: r.operand(f.NRegs)}
		case r.intn(8) == 0:
			n := 1 + r.intn(3)
			targets := make([]*ir.Block, n)
			for i := range targets {
				targets[i] = blocks[r.intn(nBlocks)]
			}
			// Index occasionally lands out of range — trap parity.
			b.Term = ir.Term{Kind: ir.TermIJmp, Index: r.operand(f.NRegs), Targets: targets}
		case r.intn(3) == 0:
			b.Term = ir.Term{Kind: ir.TermGoto, Taken: blocks[r.intn(nBlocks)]}
		default:
			// Bias toward defined flags so runs get past the first
			// branch; the undefined-flags trap stays reachable.
			if r.intn(5) != 0 {
				b.Insts = append(b.Insts, ir.Inst{Op: ir.Cmp,
					A: r.operand(f.NRegs), B: r.operand(f.NRegs)})
			}
			b.Term = ir.Term{Kind: ir.TermBr, Rel: ir.Rel(r.intn(6)),
				Taken: blocks[r.intn(nBlocks)], Next: blocks[(bi+1)%nBlocks]}
		}
	}
}

// New builds a random linearized program: 1-3 functions with an acyclic
// call graph, a small memory with an initialized global, and (half the
// time) delay slots filled.
func New(seed uint64) *ir.Program {
	r := newRng(seed)
	p := &ir.Program{MemSize: 16}
	p.Globals = []*ir.Global{{Name: "g", Addr: 0, Size: 8,
		Init: []int64{3, 1, 4, 1, 5, 9, 2, 6}}}
	names := []string{"main", "f1", "f2"}[:1+r.intn(3)]
	for i, name := range names {
		f := &ir.Func{Name: name, NRegs: 2 + r.intn(4)}
		if i > 0 {
			f.NParams = r.intn(3)
			if f.NParams > f.NRegs {
				f.NParams = f.NRegs
			}
		}
		p.Funcs = append(p.Funcs, f)
	}
	for i, f := range p.Funcs {
		var callees []string
		for _, g := range p.Funcs[i+1:] {
			callees = append(callees, g.Name)
		}
		genFunc(r, f, callees)
	}
	p.Linearize()
	if r.intn(2) == 0 {
		p.FillDelaySlots()
		p.Linearize()
	}
	return p
}
