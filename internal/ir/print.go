package ir

import (
	"fmt"
	"strings"
)

func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("%d", o.Imm)
	}
	return fmt.Sprintf("r%d", o.Reg)
}

func (in *Inst) String() string {
	switch in.Op {
	case Mov, Neg, Not, GetChar:
		if in.Op == GetChar {
			return fmt.Sprintf("r%d = getchar", in.Dst)
		}
		return fmt.Sprintf("r%d = %s %s", in.Dst, in.Op, in.A)
	case Cmp:
		return fmt.Sprintf("cmp %s, %s", in.A, in.B)
	case Ld:
		return fmt.Sprintf("r%d = ld [%s]", in.Dst, in.A)
	case St:
		return fmt.Sprintf("st [%s], %s", in.A, in.B)
	case PutChar, PutInt:
		return fmt.Sprintf("%s %s", in.Op, in.A)
	case Call:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		if in.Dst == NoReg {
			return fmt.Sprintf("call %s(%s)", in.Callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("r%d = call %s(%s)", in.Dst, in.Callee, strings.Join(args, ", "))
	case Prof:
		return fmt.Sprintf("prof seq%d, %s", in.SeqID, in.A)
	case ProfCond:
		return fmt.Sprintf("profcond seq%d.%d, %s %s %s", in.SeqID, in.Sub, in.A, in.Rel, in.B)
	case Nop:
		return "nop"
	default:
		return fmt.Sprintf("r%d = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	}
}

func (t *Term) String() string {
	switch t.Kind {
	case TermGoto:
		return fmt.Sprintf("goto B%d", t.Taken.ID)
	case TermBr:
		return fmt.Sprintf("b%s B%d else B%d", t.Rel, t.Taken.ID, t.Next.ID)
	case TermIJmp:
		parts := make([]string, len(t.Targets))
		for i, b := range t.Targets {
			parts[i] = fmt.Sprintf("B%d", b.ID)
		}
		return fmt.Sprintf("ijmp %s [%s]", t.Index, strings.Join(parts, " "))
	case TermRet:
		return fmt.Sprintf("ret %s", t.Val)
	default:
		return "term?"
	}
}

// Dump renders the function as readable text, one block per paragraph, in
// Blocks order.
func (f *Func) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (params=%d regs=%d)\n", f.Name, f.NParams, f.NRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "B%d:\n", b.ID)
		for i := range b.Insts {
			fmt.Fprintf(&sb, "\t%s\n", b.Insts[i].String())
		}
		fmt.Fprintf(&sb, "\t%s\n", b.Term.String())
	}
	return sb.String()
}

// Dump renders the whole program. It omits global initializers, MemSize
// and the block- and branch-ID allocators, so two programs with equal
// dumps may still behave differently: a dump is not an identity. Use
// Digest for that.
func (p *Program) Dump() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "global %s @%d size=%d\n", g.Name, g.Addr, g.Size)
	}
	for _, f := range p.Funcs {
		sb.WriteString(f.Dump())
	}
	return sb.String()
}
