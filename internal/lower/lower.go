// Package lower translates checked Mini-C ASTs into IR. It plays the role
// of vpo's code generator in the paper, including the three heuristic sets
// of Table 2 for translating switch statements (indirect jump through a
// jump table, binary search, or linear search).
package lower

import (
	"fmt"
	"slices"

	"branchreorder/internal/cminus"
	"branchreorder/internal/ir"
)

// HeuristicSet selects how switch statements are translated (paper
// Table 2, with n the number of cases and m the number of possible values
// between the first and last case).
type HeuristicSet int

const (
	// SetI is the pcc front end's heuristic, used for the SPARC IPC and
	// SPARC 20: indirect jump when n >= 4 && m <= 3n; binary search when
	// no indirect jump and n >= 8; linear search otherwise.
	SetI HeuristicSet = iota + 1
	// SetII is the Ultra I heuristic (indirect jumps are ~4x more
	// expensive there): indirect jump only when n >= 16 && m <= 3n.
	SetII
	// SetIII always generates a linear search, which exposes the maximum
	// number of reorderable sequences.
	SetIII
)

func (h HeuristicSet) String() string {
	switch h {
	case SetI:
		return "I"
	case SetII:
		return "II"
	case SetIII:
		return "III"
	default:
		return fmt.Sprintf("HeuristicSet(%d)", int(h))
	}
}

// SwitchKind reports which translation a switch statement received.
type SwitchKind int

const (
	SwitchLinear SwitchKind = iota
	SwitchBinary
	SwitchIndirect
)

func (k SwitchKind) String() string {
	switch k {
	case SwitchLinear:
		return "linear"
	case SwitchBinary:
		return "binary"
	default:
		return "indirect"
	}
}

// Options configures lowering.
type Options struct {
	Switch HeuristicSet // zero value means SetI
}

// Result is the outcome of lowering a translation unit.
type Result struct {
	Prog *ir.Program
	// SwitchKinds counts, per translation kind, how many source switch
	// statements were lowered that way (for the static reports).
	SwitchKinds map[SwitchKind]int
}

// Program lowers a semantically checked file.
func Program(info *cminus.Info, opts Options) (*Result, error) {
	res := &Result{
		Prog:        &ir.Program{},
		SwitchKinds: map[SwitchKind]int{},
	}
	// Lay out globals in declaration order. Each keeps its initializer
	// up to the last nonzero word; the rest of it is zero (ir.Global).
	var addr int64
	for _, g := range info.File.Globals {
		init := g.Init
		for len(init) > 0 && init[len(init)-1] == 0 {
			init = init[:len(init)-1]
		}
		res.Prog.Globals = append(res.Prog.Globals, &ir.Global{
			Name: g.Name, Addr: addr, Size: g.Size, Init: slices.Clone(init),
		})
		addr += g.Size
	}
	res.Prog.MemSize = addr

	for _, fn := range info.File.Funcs {
		lf, err := lowerFunc(info, fn, opts, res)
		if err != nil {
			return nil, err
		}
		res.Prog.Funcs = append(res.Prog.Funcs, lf)
	}
	return res, nil
}

type lowerer struct {
	info *cminus.Info
	opts Options
	res  *Result
	f    *ir.Func
	cur  *ir.Block // nil when the current position is unreachable

	breaks    []*ir.Block
	continues []*ir.Block
}

func lowerFunc(info *cminus.Info, fn *cminus.FuncDecl, opts Options, res *Result) (*ir.Func, error) {
	l := &lowerer{info: info, opts: opts, res: res}
	l.f = &ir.Func{
		Name:    fn.Name,
		NParams: len(fn.Params),
		NRegs:   info.NumLocals[fn],
	}
	if l.f.NRegs < l.f.NParams {
		l.f.NRegs = l.f.NParams
	}
	l.cur = l.f.NewBlock()
	l.stmt(fn.Body)
	// Implicit "return 0" when control can fall off the end.
	if l.cur != nil {
		l.cur.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		l.cur = nil
	}
	return l.f, nil
}

// newBlock allocates a block; startBlock makes it the emission point.
func (l *lowerer) newBlock() *ir.Block { return l.f.NewBlock() }

func (l *lowerer) startBlock(b *ir.Block) { l.cur = b }

// emit appends an instruction to the current block; in unreachable
// positions it starts a fresh floating block so lowering can continue (the
// block is removed later as unreachable).
func (l *lowerer) emit(in ir.Inst) {
	if l.cur == nil {
		l.cur = l.newBlock()
	}
	l.cur.Insts = append(l.cur.Insts, in)
}

// terminate seals the current block with t and leaves the position
// unreachable.
func (l *lowerer) terminate(t ir.Term) {
	if l.cur == nil {
		l.cur = l.newBlock()
	}
	l.cur.Term = t
	l.cur = nil
}

// jumpTo seals the current block with a goto to b (no-op if unreachable).
func (l *lowerer) jumpTo(b *ir.Block) {
	if l.cur == nil {
		return
	}
	l.cur.Term = ir.Term{Kind: ir.TermGoto, Taken: b}
	l.cur = nil
}

func (l *lowerer) stmt(s cminus.Stmt) {
	switch s := s.(type) {
	case *cminus.BlockStmt:
		for _, sub := range s.Stmts {
			l.stmt(sub)
		}
	case *cminus.EmptyStmt:
	case *cminus.DeclStmt:
		slots := l.info.DeclSlots[s]
		for i := range s.Names {
			if s.Inits[i] != nil {
				v := l.expr(s.Inits[i])
				l.emit(ir.Inst{Op: ir.Mov, Dst: ir.Reg(slots[i]), A: v})
			} else {
				l.emit(ir.Inst{Op: ir.Mov, Dst: ir.Reg(slots[i]), A: ir.Imm(0)})
			}
		}
	case *cminus.ExprStmt:
		l.expr(s.X)
	case *cminus.IfStmt:
		thenB := l.newBlock()
		endB := l.newBlock()
		elseB := endB
		if s.Else != nil {
			elseB = l.newBlock()
		}
		l.cond(s.Cond, thenB, elseB)
		l.startBlock(thenB)
		l.stmt(s.Then)
		l.jumpTo(endB)
		if s.Else != nil {
			l.startBlock(elseB)
			l.stmt(s.Else)
			l.jumpTo(endB)
		}
		l.startBlock(endB)
	case *cminus.WhileStmt:
		head := l.newBlock()
		body := l.newBlock()
		end := l.newBlock()
		l.jumpTo(head)
		l.startBlock(head)
		l.cond(s.Cond, body, end)
		l.pushLoop(end, head)
		l.startBlock(body)
		l.stmt(s.Body)
		l.jumpTo(head)
		l.popLoop()
		l.startBlock(end)
	case *cminus.DoWhileStmt:
		body := l.newBlock()
		check := l.newBlock()
		end := l.newBlock()
		l.jumpTo(body)
		l.pushLoop(end, check)
		l.startBlock(body)
		l.stmt(s.Body)
		l.jumpTo(check)
		l.popLoop()
		l.startBlock(check)
		l.cond(s.Cond, body, end)
		l.startBlock(end)
	case *cminus.ForStmt:
		if s.Init != nil {
			l.expr(s.Init)
		}
		head := l.newBlock()
		body := l.newBlock()
		post := l.newBlock()
		end := l.newBlock()
		l.jumpTo(head)
		l.startBlock(head)
		if s.Cond != nil {
			l.cond(s.Cond, body, end)
		} else {
			l.jumpTo(body)
		}
		l.pushLoop(end, post)
		l.startBlock(body)
		l.stmt(s.Body)
		l.jumpTo(post)
		l.popLoop()
		l.startBlock(post)
		if s.Post != nil {
			l.expr(s.Post)
		}
		l.jumpTo(head)
		l.startBlock(end)
	case *cminus.SwitchStmt:
		l.switchStmt(s)
	case *cminus.BreakStmt:
		l.jumpTo(l.breaks[len(l.breaks)-1])
	case *cminus.ContinueStmt:
		l.jumpTo(l.continues[len(l.continues)-1])
	case *cminus.ReturnStmt:
		v := ir.Imm(0)
		if s.X != nil {
			v = l.expr(s.X)
		}
		l.terminate(ir.Term{Kind: ir.TermRet, Val: v})
	default:
		panic(fmt.Sprintf("lower: unknown statement %T", s))
	}
}

func (l *lowerer) pushLoop(brk, cont *ir.Block) {
	l.breaks = append(l.breaks, brk)
	l.continues = append(l.continues, cont)
}

func (l *lowerer) popLoop() {
	l.breaks = l.breaks[:len(l.breaks)-1]
	l.continues = l.continues[:len(l.continues)-1]
}

// regOperand materializes an operand into a register (immediates get a
// fresh register via Mov).
func (l *lowerer) regOperand(o ir.Operand) ir.Reg {
	if !o.IsImm {
		return o.Reg
	}
	r := l.f.NewReg()
	l.emit(ir.Inst{Op: ir.Mov, Dst: r, A: o})
	return r
}
