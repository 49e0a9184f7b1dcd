// Package interp executes IR programs and collects the dynamic statistics
// the paper's evaluation is built on: instructions executed, conditional
// branches executed and taken, unconditional jumps, and indirect jumps.
// It stands in for running the compiled utilities on SPARC hardware under
// the ease measurement environment.
//
// Programs must be linearized (ir.Program.Linearize) before execution:
// fall-through versus jump is decided by physical block adjacency, exactly
// as in machine code.
package interp

import (
	"bytes"
	"fmt"
	"strconv"

	"branchreorder/internal/ir"
)

// Stats aggregates the dynamic event counts of one execution.
type Stats struct {
	// Insts is the total dynamic instruction count under the SPARC-like
	// cost model: every ordinary instruction is 1; a conditional branch
	// is 1; an unconditional goto is 1 only when it is a real jump (its
	// target is not the physically following block); an indirect jump
	// costs IJmpInsts (table-address formation, table load, and jump —
	// the bounds checks are emitted as explicit instructions by
	// lowering). Prof, ProfCond and Nop cost 0.
	Insts uint64

	CondBranches  uint64 // conditional branches executed
	TakenBranches uint64 // conditional branches taken
	Jumps         uint64 // real unconditional jumps executed
	IndirectJumps uint64 // indirect (jump-table) jumps executed
	Loads         uint64
	Stores        uint64
	Calls         uint64
	Cmps          uint64
	ProfHits      uint64 // profiling pseudo-instructions executed (cost 0)

	// SlotNops counts executed control transfers whose delay slot held
	// nothing useful for the path taken (ir.FillDelaySlots decides the
	// fills; zero when that pass has not run). Not part of Insts: only
	// the delay-slotted machine cycle models charge it.
	SlotNops uint64
}

// DefaultIJmpInsts is the instruction cost of one indirect jump: shift to
// scale the index, load of the table entry, and the register jump.
const DefaultIJmpInsts = 3

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 1 << 33

// MaxCallDepth bounds the calls active at once, main's not counted. A call
// charges no step, so without it unbounded recursion would exhaust memory
// (or the reference Machine's Go stack) before the step limit; past it,
// every engine traps with the same error.
const MaxCallDepth = 1 << 14

var callDepthMsg = fmt.Sprintf("exceeded call depth %d", MaxCallDepth)

// Machine executes a program.
type Machine struct {
	Prog  *ir.Program
	Input []byte

	// OnBranch, if non-nil, observes every executed conditional branch.
	// The id is the branch's program-unique BranchID from linearization.
	OnBranch func(id int, taken bool)

	// OnBranches, if non-nil, observes the same events in execution
	// order, batched: each event is BranchEvent(id, taken).
	// Every chunk but the last holds exactly BranchChunk events; full
	// chunks are delivered during the run, and the last, partial one
	// before Run returns on every path, traps and step-limit aborts
	// included. The slice is valid only during the call. A branch ID
	// outside [0, MaxBranchID] cannot be encoded and traps.
	OnBranches func(events []uint32)

	// ArmTables, if non-nil, is indexed by sequence ID: a Prof
	// instruction whose sequence has a table there counts its value in
	// the table (see ArmTable), and no hook sees it.
	ArmTables []*ArmTable

	// OnProf, if non-nil, observes every other executed Prof and every
	// ProfCond instruction: for Prof, value is the branch variable and
	// sub is 0; for ProfCond, value is the 0/1 outcome of the
	// instrumented condition and sub identifies it within the sequence.
	OnProf func(seqID, sub int, value int64)

	// IJmpInsts is the instruction cost charged per indirect jump;
	// DefaultIJmpInsts if zero.
	IJmpInsts uint64

	// MaxSteps aborts execution after this many dynamic instructions;
	// DefaultMaxSteps if zero.
	MaxSteps uint64

	Stats  Stats
	Output bytes.Buffer

	mem    []int64
	log    branchLog
	inPos  int
	steps  uint64
	depth  int // calls active, main's not counted
	numBuf [24]byte
}

// RuntimeError describes a trap during execution.
type RuntimeError struct {
	Func string
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s: %s", e.Func, e.Msg)
}

type frame struct {
	f     *ir.Func
	regs  []int64
	cmpA  int64
	cmpB  int64
	flags bool
}

// Run executes main() and returns its result.
func (m *Machine) Run() (int64, error) {
	main := m.Prog.Func("main")
	if main == nil {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	if main.NParams != 0 {
		return 0, fmt.Errorf("interp: main must take no parameters")
	}
	if m.IJmpInsts == 0 {
		m.IJmpInsts = DefaultIJmpInsts
	}
	if m.MaxSteps == 0 {
		m.MaxSteps = DefaultMaxSteps
	}
	m.mem = make([]int64, m.Prog.MemSize)
	for _, g := range m.Prog.Globals {
		copy(m.mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	m.inPos = 0
	m.steps = 0
	m.depth = 0
	// OnBranch is called as each branch executes; the log feeds only
	// OnBranches.
	m.log.start(nil, m.OnBranches)
	ret, err := m.call(main, nil)
	m.log.flush()
	return ret, err
}

func (m *Machine) call(f *ir.Func, args []int64) (int64, error) {
	fr := frame{f: f, regs: make([]int64, f.NRegs)}
	copy(fr.regs, args)
	m.Stats.Calls++
	m.Stats.Insts++ // the call instruction itself
	b := f.Entry()
	for {
		for i := range b.Insts {
			if err := m.exec(&fr, &b.Insts[i]); err != nil {
				return 0, err
			}
		}
		t := &b.Term
		switch t.Kind {
		case ir.TermRet:
			m.Stats.Insts++ // the return instruction
			if t.Slot != ir.SlotAlways {
				m.Stats.SlotNops++
			}
			if err := m.step(&fr, 1); err != nil {
				return 0, err
			}
			return m.val(&fr, t.Val), nil
		case ir.TermGoto:
			if t.Taken.LayoutIndex != b.LayoutIndex+1 {
				m.Stats.Jumps++
				m.Stats.Insts++
				if t.Slot != ir.SlotAlways {
					m.Stats.SlotNops++
				}
				if err := m.step(&fr, 1); err != nil {
					return 0, err
				}
			}
			b = t.Taken
		case ir.TermBr:
			if !fr.flags {
				return 0, &RuntimeError{f.Name, "conditional branch with undefined condition codes"}
			}
			m.Stats.CondBranches++
			m.Stats.Insts++
			if err := m.step(&fr, 1); err != nil {
				return 0, err
			}
			taken := t.Rel.Holds(fr.cmpA, fr.cmpB)
			if m.log.on && (t.BranchID < 0 || t.BranchID > MaxBranchID) {
				// Neither hook sees an event the chunks cannot carry.
				return 0, &RuntimeError{f.Name, fmt.Sprintf("branch ID %d does not fit a branch event", t.BranchID)}
			}
			if m.OnBranch != nil {
				m.OnBranch(t.BranchID, taken)
			}
			if m.log.on && m.log.add(BranchEvent(t.BranchID, taken)) {
				m.log.flush()
			}
			switch t.Slot {
			case ir.SlotAlways:
			case ir.SlotFallthru:
				if taken {
					m.Stats.SlotNops++
				}
			case ir.SlotTaken:
				if !taken {
					m.Stats.SlotNops++
				}
			default:
				m.Stats.SlotNops++
			}
			if taken {
				m.Stats.TakenBranches++
				b = t.Taken
			} else {
				b = t.Next
			}
		case ir.TermIJmp:
			idx := m.val(&fr, t.Index)
			if idx < 0 || idx >= int64(len(t.Targets)) {
				return 0, &RuntimeError{f.Name, fmt.Sprintf("indirect jump index %d out of range [0,%d)", idx, len(t.Targets))}
			}
			m.Stats.IndirectJumps++
			m.Stats.Insts += m.IJmpInsts
			if t.Slot != ir.SlotAlways {
				m.Stats.SlotNops++
			}
			if err := m.step(&fr, m.IJmpInsts); err != nil {
				return 0, err
			}
			b = t.Targets[idx]
		}
	}
}

func (m *Machine) step(fr *frame, n uint64) error {
	m.steps += n
	if m.steps > m.MaxSteps {
		return &RuntimeError{fr.f.Name, fmt.Sprintf("exceeded step limit %d", m.MaxSteps)}
	}
	return nil
}

func (m *Machine) val(fr *frame, o ir.Operand) int64 {
	if o.IsImm {
		return o.Imm
	}
	return fr.regs[o.Reg]
}

func (m *Machine) exec(fr *frame, in *ir.Inst) error {
	switch in.Op {
	case ir.Prof:
		m.Stats.ProfHits++
		if t := armTable(m.ArmTables, in.SeqID); t != nil {
			t.Count(m.val(fr, in.A))
		} else if m.OnProf != nil {
			m.OnProf(in.SeqID, in.Sub, m.val(fr, in.A))
		}
		return nil // zero cost
	case ir.ProfCond:
		m.Stats.ProfHits++
		if m.OnProf != nil {
			v := int64(0)
			if in.Rel.Holds(m.val(fr, in.A), m.val(fr, in.B)) {
				v = 1
			}
			m.OnProf(in.SeqID, in.Sub, v)
		}
		return nil // zero cost
	case ir.Nop:
		return nil
	case ir.Call:
		// The call instruction is accounted for in call() — Calls and
		// Insts exactly once — and consumes no step budget: the callee's
		// own instructions bound the run.
		callee := m.Prog.Func(in.Callee)
		if callee == nil {
			return &RuntimeError{fr.f.Name, "call to unknown function " + in.Callee}
		}
		if m.depth == MaxCallDepth {
			return &RuntimeError{fr.f.Name, callDepthMsg}
		}
		args := make([]int64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.val(fr, a)
		}
		m.depth++
		ret, err := m.call(callee, args)
		m.depth--
		if err != nil {
			return err
		}
		if in.Dst != ir.NoReg {
			fr.regs[in.Dst] = ret
		}
		return nil
	}
	m.Stats.Insts++
	if err := m.step(fr, 1); err != nil {
		return err
	}
	switch in.Op {
	case ir.Mov:
		fr.regs[in.Dst] = m.val(fr, in.A)
	case ir.Add:
		fr.regs[in.Dst] = m.val(fr, in.A) + m.val(fr, in.B)
	case ir.Sub:
		fr.regs[in.Dst] = m.val(fr, in.A) - m.val(fr, in.B)
	case ir.Mul:
		fr.regs[in.Dst] = m.val(fr, in.A) * m.val(fr, in.B)
	case ir.Div:
		d := m.val(fr, in.B)
		if d == 0 {
			return &RuntimeError{fr.f.Name, "division by zero"}
		}
		fr.regs[in.Dst] = m.val(fr, in.A) / d
	case ir.Rem:
		d := m.val(fr, in.B)
		if d == 0 {
			return &RuntimeError{fr.f.Name, "remainder by zero"}
		}
		fr.regs[in.Dst] = m.val(fr, in.A) % d
	case ir.And:
		fr.regs[in.Dst] = m.val(fr, in.A) & m.val(fr, in.B)
	case ir.Or:
		fr.regs[in.Dst] = m.val(fr, in.A) | m.val(fr, in.B)
	case ir.Xor:
		fr.regs[in.Dst] = m.val(fr, in.A) ^ m.val(fr, in.B)
	case ir.Shl:
		fr.regs[in.Dst] = m.val(fr, in.A) << (uint64(m.val(fr, in.B)) & 63)
	case ir.Shr:
		fr.regs[in.Dst] = m.val(fr, in.A) >> (uint64(m.val(fr, in.B)) & 63)
	case ir.Neg:
		fr.regs[in.Dst] = -m.val(fr, in.A)
	case ir.Not:
		fr.regs[in.Dst] = ^m.val(fr, in.A)
	case ir.Cmp:
		fr.cmpA, fr.cmpB = m.val(fr, in.A), m.val(fr, in.B)
		fr.flags = true
		m.Stats.Cmps++
	case ir.Ld:
		a := m.val(fr, in.A)
		if a < 0 || a >= int64(len(m.mem)) {
			return &RuntimeError{fr.f.Name, fmt.Sprintf("load address %d out of range", a)}
		}
		fr.regs[in.Dst] = m.mem[a]
		m.Stats.Loads++
	case ir.St:
		a := m.val(fr, in.A)
		if a < 0 || a >= int64(len(m.mem)) {
			return &RuntimeError{fr.f.Name, fmt.Sprintf("store address %d out of range", a)}
		}
		m.mem[a] = m.val(fr, in.B)
		m.Stats.Stores++
	case ir.GetChar:
		if m.inPos < len(m.Input) {
			fr.regs[in.Dst] = int64(m.Input[m.inPos])
			m.inPos++
		} else {
			fr.regs[in.Dst] = -1
		}
	case ir.PutChar:
		m.Output.WriteByte(byte(m.val(fr, in.A)))
	case ir.PutInt:
		m.Output.Write(strconv.AppendInt(m.numBuf[:0], m.val(fr, in.A), 10))
	default:
		return &RuntimeError{fr.f.Name, fmt.Sprintf("unknown opcode %v", in.Op)}
	}
	return nil
}
