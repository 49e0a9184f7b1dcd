package ir

import (
	"fmt"
	"sort"
)

// Verify checks structural invariants of a whole program: block membership
// of every edge, register bounds, call-site arity, condition-code
// availability at every conditional branch, and global layout. It returns
// the first problem found, or nil.
func (p *Program) Verify() error {
	seen := map[string]bool{}
	for _, f := range p.Funcs {
		if seen[f.Name] {
			return fmt.Errorf("duplicate function %q", f.Name)
		}
		seen[f.Name] = true
	}
	if err := p.verifyGlobals(); err != nil {
		return err
	}
	for _, f := range p.Funcs {
		if err := p.verifyFunc(f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

func (p *Program) verifyGlobals() error {
	gs := append([]*Global(nil), p.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Addr < gs[j].Addr })
	var end int64
	for _, g := range gs {
		if g.Size <= 0 {
			return fmt.Errorf("global %s: nonpositive size %d", g.Name, g.Size)
		}
		if g.Addr < end {
			return fmt.Errorf("global %s overlaps previous global", g.Name)
		}
		if int64(len(g.Init)) > g.Size {
			return fmt.Errorf("global %s: init longer than size", g.Name)
		}
		end = g.Addr + g.Size
	}
	if end > p.MemSize {
		return fmt.Errorf("globals extend to %d beyond MemSize %d", end, p.MemSize)
	}
	return nil
}

func (p *Program) verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	if f.NRegs < f.NParams {
		return fmt.Errorf("NRegs %d < NParams %d", f.NRegs, f.NParams)
	}
	for _, b := range f.Blocks {
		if b.ID < 0 {
			return fmt.Errorf("negative block ID %d", b.ID)
		}
	}
	byID := make([]*Block, IDBound(f))
	for _, b := range f.Blocks {
		if byID[b.ID] != nil {
			return fmt.Errorf("duplicate block ID %d", b.ID)
		}
		byID[b.ID] = b
	}
	// A block outside f may share a member's ID, so membership compares
	// the block itself.
	member := func(b *Block) bool { return b != nil && At(byID, b) == b }

	checkOp := func(b *Block, o Operand) error {
		if !o.IsImm && (o.Reg < 0 || int(o.Reg) >= f.NRegs) {
			return fmt.Errorf("B%d: register %d out of range", b.ID, o.Reg)
		}
		return nil
	}
	checkDst := func(b *Block, r Reg) error {
		if r < 0 || int(r) >= f.NRegs {
			return fmt.Errorf("B%d: destination register %d out of range", b.ID, r)
		}
		return nil
	}

	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch in.Op {
			case Mov, Neg, Not, Ld:
				if err := checkDst(b, in.Dst); err != nil {
					return err
				}
				if err := checkOp(b, in.A); err != nil {
					return err
				}
			case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr:
				if err := checkDst(b, in.Dst); err != nil {
					return err
				}
				if err := checkOp(b, in.A); err != nil {
					return err
				}
				if err := checkOp(b, in.B); err != nil {
					return err
				}
			case Cmp, St, ProfCond:
				if err := checkOp(b, in.A); err != nil {
					return err
				}
				if err := checkOp(b, in.B); err != nil {
					return err
				}
			case GetChar:
				if err := checkDst(b, in.Dst); err != nil {
					return err
				}
			case PutChar, PutInt, Prof:
				if err := checkOp(b, in.A); err != nil {
					return err
				}
			case Call:
				callee := p.Func(in.Callee)
				if callee == nil {
					return fmt.Errorf("B%d: call to unknown function %q", b.ID, in.Callee)
				}
				if len(in.Args) != callee.NParams {
					return fmt.Errorf("B%d: call %s with %d args, want %d",
						b.ID, in.Callee, len(in.Args), callee.NParams)
				}
				for _, a := range in.Args {
					if err := checkOp(b, a); err != nil {
						return err
					}
				}
				if in.Dst != NoReg {
					if err := checkDst(b, in.Dst); err != nil {
						return err
					}
				}
			case Nop:
			default:
				return fmt.Errorf("B%d: unknown opcode %d", b.ID, in.Op)
			}
		}
		t := &b.Term
		switch t.Kind {
		case TermGoto:
			if !member(t.Taken) {
				return fmt.Errorf("B%d: goto target not in function", b.ID)
			}
		case TermBr:
			if !member(t.Taken) || !member(t.Next) {
				return fmt.Errorf("B%d: branch successor not in function", b.ID)
			}
		case TermIJmp:
			if len(t.Targets) == 0 {
				return fmt.Errorf("B%d: indirect jump with empty table", b.ID)
			}
			for _, tgt := range t.Targets {
				if !member(tgt) {
					return fmt.Errorf("B%d: indirect jump target not in function", b.ID)
				}
			}
			if err := checkOp(b, t.Index); err != nil {
				return err
			}
		case TermRet:
			if err := checkOp(b, t.Val); err != nil {
				return err
			}
		default:
			return fmt.Errorf("B%d: unknown terminator", b.ID)
		}
	}
	return verifyFlags(f)
}

// verifyFlags checks that the condition codes are defined on every path
// reaching a conditional branch. The entry block may be reached from
// outside, without them, and only a Cmp sets them, so they are undefined
// at the exit of exactly those blocks without a Cmp that the entry
// reaches through such blocks alone (the entry included). verifyFlags
// walks those blocks and reports the first, in f.Blocks order, that ends
// in a conditional branch.
func verifyFlags(f *Func) error {
	flagless := make([]bool, IDBound(f))
	var stack, succs []*Block
	if entry := f.Entry(); !hasCmp(entry) {
		flagless[entry.ID] = true
		stack = append(stack, entry)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = b.Term.Succs(succs[:0])
		for _, s := range succs {
			if !flagless[s.ID] && !hasCmp(s) {
				flagless[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range f.Blocks {
		if flagless[b.ID] && b.Term.Kind == TermBr {
			return fmt.Errorf("B%d: conditional branch with undefined condition codes", b.ID)
		}
	}
	return nil
}
