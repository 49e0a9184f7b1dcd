package interp

import (
	"bytes"
	"fmt"
	"strconv"

	"branchreorder/internal/ir"
)

// FastMachine executes pre-decoded Code: a direct dispatch loop,
// observably equivalent to Machine (same Stats, Output, return value,
// branch/profile event streams and runtime traps) at a fraction of the
// dispatch cost. It is the oracle the closure engine is held to exactly
// (internal/equiv) and the engine of -engine fast. The differences from
// Machine are confined to resource accounting on aborted runs:
//
//   - The step budget (MaxSteps) is charged block-granularly, so a
//     step-limit abort stops at a block edge of the basic block in which
//     the reference interpreter stops, not mid-block. The error text is
//     the same trap either way. Runs that stay within the budget —
//     everything the evaluation measures — are unaffected.
//   - On any runtime trap, Stats may be missing the charges of the
//     partially executed current block (blocks are charged at their
//     terminator). Stats of completed runs are exact.
//
// A FastMachine may be reused: Run resets all execution state, recycles
// the register arena, frame stack and data memory from the previous run,
// and overwrites Stats and Output.
type FastMachine struct {
	Code  *Code
	Input []byte

	// OnBranch, if non-nil, observes the events Machine.OnBranch does,
	// in the same order, but delivered in batches from the machine's
	// chunk: the dispatch loop only records each event, and every
	// flush of the chunk — when it fills and before Run returns, on
	// every path — replays it through OnBranch.
	OnBranch func(id int, taken bool)

	// OnBranches, if non-nil, observes the same events in chunks,
	// exactly as Machine.OnBranches does.
	OnBranches func(events []uint32)

	// OnProf, if non-nil, observes every executed Prof/ProfCond
	// instruction, exactly as Machine.OnProf does.
	OnProf func(seqID, sub int, value int64)

	// IJmpInsts is the instruction cost charged per indirect jump;
	// DefaultIJmpInsts if zero.
	IJmpInsts uint64

	// MaxSteps aborts execution after (approximately — see above) this
	// many dynamic instructions; DefaultMaxSteps if zero.
	MaxSteps uint64

	Stats  Stats
	Output bytes.Buffer

	mem    []int64
	regs   []int64
	frames []fastFrame
	log    branchLog
	inPos  int
	numBuf [24]byte
}

// relTruth encodes each ir.Rel as a bitmask over the three-way compare
// outcome (bit 4: a<b, bit 2: a==b, bit 1: a>b); Decode bakes it into
// dinst.relMask. maskHolds evaluates the relation against the mask with
// at most two compares instead of ir.Rel.Holds' six-way switch: Run's
// dispatch loop is far past the compiler's big-function threshold,
// where only tiny callees (cost < 20, like darg.val) still inline, so
// the branch tails need a relation test cheap enough to disappear into
// them.
var relTruth = [...]uint8{
	ir.EQ: 0b010,
	ir.NE: 0b101,
	ir.LT: 0b100,
	ir.LE: 0b110,
	ir.GT: 0b001,
	ir.GE: 0b011,
}

func maskHolds(mask uint8, a, b int64) bool {
	s := 0
	if a < b {
		s = 2
	} else if a == b {
		s = 1
	}
	return mask>>s&1 != 0
}

// fastFrame is a suspended caller: where to resume, where its register
// window starts, and its condition codes (flags are per-frame, exactly
// as in the reference interpreter).
type fastFrame struct {
	fn    int32
	pc    int32
	base  int32
	dst   int32
	cmpA  int64
	cmpB  int64
	flags bool
}

// Run executes main() and returns its result.
func (m *FastMachine) Run() (int64, error) {
	m.log.start(m.OnBranch, m.OnBranches)
	ret, err := m.run()
	m.log.finish()
	return ret, err
}

// run is Run's dispatch loop; Run delivers the branch events it leaves
// in m.log.
func (m *FastMachine) run() (int64, error) {
	c := m.Code
	if c == nil || c.main < 0 {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	if c.funcs[c.main].nParams != 0 {
		return 0, fmt.Errorf("interp: main must take no parameters")
	}
	ijmpInsts := m.IJmpInsts
	if ijmpInsts == 0 {
		ijmpInsts = DefaultIJmpInsts
	}
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}

	// Reset execution state, reusing every arena from a previous run.
	if int64(len(m.mem)) != c.prog.MemSize {
		m.mem = make([]int64, c.prog.MemSize)
	} else {
		clear(m.mem)
	}
	for _, g := range c.prog.Globals {
		copy(m.mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	m.inPos = 0
	m.Stats = Stats{}
	m.Output.Reset()
	m.frames = m.frames[:0]

	// Current-frame state lives in locals; calls and returns spill and
	// reload it from the frame stack.
	fn := int32(c.main)
	f := &c.funcs[fn]
	code := f.code
	var (
		pc         int32
		base       int32
		cmpA, cmpB int64
		flags      bool
		steps      uint64
	)
	m.regs = growWindow(m.regs[:0], f.nRegs)
	win := m.regs
	m.Stats.Calls++
	m.Stats.Insts++ // the synthetic call of main

	for {
		in := &code[pc]
		switch baseOp[in.op] {
		case opEnter:
			m.Stats.Insts += uint64(in.cost)
			steps += uint64(in.stepCost)
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			pc++

		case opMov:
			win[in.dst] = in.a.val(win)
			pc++
		case opAdd:
			win[in.dst] = in.a.val(win) + in.b.val(win)
			pc++
		case opSub:
			win[in.dst] = in.a.val(win) - in.b.val(win)
			pc++
		case opMul:
			win[in.dst] = in.a.val(win) * in.b.val(win)
			pc++
		case opDiv:
			d := in.b.val(win)
			if d == 0 {
				return 0, &RuntimeError{f.name, "division by zero"}
			}
			win[in.dst] = in.a.val(win) / d
			pc++
		case opRem:
			d := in.b.val(win)
			if d == 0 {
				return 0, &RuntimeError{f.name, "remainder by zero"}
			}
			win[in.dst] = in.a.val(win) % d
			pc++
		case opAnd:
			win[in.dst] = in.a.val(win) & in.b.val(win)
			pc++
		case opOr:
			win[in.dst] = in.a.val(win) | in.b.val(win)
			pc++
		case opXor:
			win[in.dst] = in.a.val(win) ^ in.b.val(win)
			pc++
		case opShl:
			win[in.dst] = in.a.val(win) << (uint64(in.b.val(win)) & 63)
			pc++
		case opShr:
			win[in.dst] = in.a.val(win) >> (uint64(in.b.val(win)) & 63)
			pc++
		case opNeg:
			win[in.dst] = -in.a.val(win)
			pc++
		case opNot:
			win[in.dst] = ^in.a.val(win)
			pc++
		case opCmp:
			cmpA, cmpB = in.a.val(win), in.b.val(win)
			flags = true
			m.Stats.Cmps++
			pc++
		case opLd:
			a := in.a.val(win)
			if a < 0 || a >= int64(len(m.mem)) {
				return 0, &RuntimeError{f.name, fmt.Sprintf("load address %d out of range", a)}
			}
			win[in.dst] = m.mem[a]
			m.Stats.Loads++
			pc++
		case opSt:
			a := in.a.val(win)
			if a < 0 || a >= int64(len(m.mem)) {
				return 0, &RuntimeError{f.name, fmt.Sprintf("store address %d out of range", a)}
			}
			m.mem[a] = in.b.val(win)
			m.Stats.Stores++
			pc++
		case opGetChar:
			if m.inPos < len(m.Input) {
				win[in.dst] = int64(m.Input[m.inPos])
				m.inPos++
			} else {
				win[in.dst] = -1
			}
			pc++
		case opPutChar:
			m.Output.WriteByte(byte(in.a.val(win)))
			pc++
		case opPutInt:
			m.Output.Write(strconv.AppendInt(m.numBuf[:0], in.a.val(win), 10))
			pc++
		case opProf:
			m.Stats.ProfHits++
			if m.OnProf != nil {
				m.OnProf(int(in.seqID), int(in.sub), in.a.val(win))
			}
			pc++
		case opProfCond:
			m.Stats.ProfHits++
			if m.OnProf != nil {
				v := int64(0)
				if maskHolds(in.relMask, in.a.val(win), in.b.val(win)) {
					v = 1
				}
				m.OnProf(int(in.seqID), int(in.sub), v)
			}
			pc++

		case opCall:
			call := &f.calls[in.t1]
			if call.fn < 0 {
				return 0, &RuntimeError{f.name, "call to unknown function " + call.name}
			}
			// The call instruction's Insts charge came with the block's
			// opEnter; here only the call event itself is counted. Like
			// the reference interpreter, a call consumes no step budget:
			// the callee's own blocks bound the run.
			m.Stats.Calls++
			m.frames = append(m.frames, fastFrame{
				fn: fn, pc: pc + 1, base: base, dst: call.dst,
				cmpA: cmpA, cmpB: cmpB, flags: flags,
			})
			callee := &c.funcs[call.fn]
			newBase := base + int32(len(win))
			m.regs = growWindow(m.regs, int(newBase)+callee.nRegs)
			neww := m.regs[newBase:]
			// win may point at a stale backing array after growth; its
			// values are still the caller's registers, so argument reads
			// stay valid.
			n := len(call.args)
			if n > len(neww) {
				n = len(neww)
			}
			for i := 0; i < n; i++ {
				neww[i] = call.args[i].val(win)
			}
			fn = call.fn
			f = callee
			code = f.code
			pc = 0
			base = newBase
			win = neww
			cmpA, cmpB, flags = 0, 0, false

		case opRet:
			m.Stats.Insts += uint64(in.cost) + 1
			m.Stats.SlotNops += uint64(in.slotTaken)
			steps += uint64(in.stepCost) + 1
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			v := in.a.val(win)
			if len(m.frames) == 0 {
				return v, nil
			}
			fr := m.frames[len(m.frames)-1]
			m.frames = m.frames[:len(m.frames)-1]
			fn = fr.fn
			f = &c.funcs[fn]
			code = f.code
			pc = fr.pc
			base = fr.base
			// Truncate the arena to the caller's window end so the
			// invariant len(m.regs) == base+nRegs holds for the next call.
			m.regs = m.regs[:base+int32(f.nRegs)]
			win = m.regs[base:]
			cmpA, cmpB, flags = fr.cmpA, fr.cmpB, fr.flags
			if fr.dst >= 0 {
				win[fr.dst] = v
			}

		case opJump:
			m.Stats.Jumps++
			m.Stats.Insts += uint64(in.cost) + 1
			m.Stats.SlotNops += uint64(in.slotTaken)
			steps += uint64(in.stepCost) + 1
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			pc = in.t1

		case opBr:
			if !flags {
				return 0, &RuntimeError{f.name, "conditional branch with undefined condition codes"}
			}
			m.Stats.CondBranches++
			m.Stats.Insts += uint64(in.cost) + 1
			steps += uint64(in.stepCost) + 1
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			taken := in.relMask>>rs&1 != 0
			if m.log.on && m.log.add(uint32(in.branchID)<<1|uint32(in.relMask>>rs&1)) {
				m.log.flush()
			}
			if taken {
				m.Stats.SlotNops += uint64(in.slotTaken)
				m.Stats.TakenBranches++
				pc = in.t1
			} else {
				m.Stats.SlotNops += uint64(in.slotFall)
				pc = in.t2
			}

		case opCmpBr:
			cmpA, cmpB = in.a.val(win), in.b.val(win)
			flags = true
			m.Stats.Cmps++
			m.Stats.CondBranches++
			m.Stats.Insts += uint64(in.cost) + 1
			steps += uint64(in.stepCost) + 1
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			taken := in.relMask>>rs&1 != 0
			if m.log.on && m.log.add(uint32(in.branchID)<<1|uint32(in.relMask>>rs&1)) {
				m.log.flush()
			}
			if taken {
				m.Stats.SlotNops += uint64(in.slotTaken)
				m.Stats.TakenBranches++
				pc = in.t1
			} else {
				m.Stats.SlotNops += uint64(in.slotFall)
				pc = in.t2
			}

		case opIJmp:
			idx := in.a.val(win)
			tbl := f.tables[in.t1]
			if idx < 0 || idx >= int64(len(tbl)) {
				return 0, &RuntimeError{f.name, fmt.Sprintf("indirect jump index %d out of range [0,%d)", idx, len(tbl))}
			}
			m.Stats.IndirectJumps++
			m.Stats.Insts += uint64(in.cost) + ijmpInsts
			m.Stats.SlotNops += uint64(in.slotTaken)
			steps += uint64(in.stepCost) + ijmpInsts
			if steps > maxSteps {
				return 0, &RuntimeError{f.name, fmt.Sprintf("exceeded step limit %d", maxSteps)}
			}
			pc = tbl[idx]
		}
	}
}

// growWindow extends regs to length n, zeroing the new window.
func growWindow(regs []int64, n int) []int64 {
	old := len(regs)
	if n <= cap(regs) {
		regs = regs[:n]
		clear(regs[old:])
		return regs
	}
	grown := make([]int64, n, n+n/2+16)
	copy(grown, regs[:old])
	return grown
}
