// Closure-chain compilation: the decoded execution engine. Compile
// translates each decoded function into a graph of pre-bound Go
// closures — one closure per executed operation, operands resolved at
// compile time, control transfers resolved to direct *blockFn successor
// pointers — so a straight-line run executes with zero dispatch
// switches: each closure calls the next op's closure directly and only
// block transfers return to the trampoline.
//
// Two things keep the hot path lean:
//
//   - The machine's hot state (the register window, condition codes and
//     step counter) is threaded through every closure's arguments and
//     results instead of living on the ClosureMachine, so it stays in
//     CPU registers across an entire straight-line run.
//   - Stats are derived, not charged eagerly. Every control transfer
//     (branch outcome, jump, call, ret, indirect jump, fall-through)
//     owns a counter; executing it is one increment. The charges of the
//     straight-line segment it terminates are a compile-time Stats
//     delta, and Run's finalizer folds count×delta into m.Stats. Trap
//     closures add their own statically-known partial-segment delta
//     before trapping, so even aborted runs account every charge made
//     before the trap point.
//
// Contract: a ClosureMachine is observably equivalent to the reference
// Machine — same Stats, Output, return value, branch/profile event
// streams and byte-identical RuntimeError traps. The differences are
// confined to resource accounting on aborted runs:
//
//   - The step budget (MaxSteps) is charged block-granularly, so a
//     step-limit abort stops at a block edge of the basic block in which
//     the reference interpreter stops, not mid-block. The error text is
//     the same trap either way. Runs that stay within the budget —
//     everything the evaluation measures — are unaffected.
//   - A block's Insts are charged at its terminator (or by its opEnter),
//     so on a runtime trap Stats miss the Insts of the partially
//     executed block; its other counters are charged as each op runs.
//     Stats of completed runs are exact.
//
// The reference Machine is the differential oracle (internal/equiv),
// and the tests pin the trap-point and step-abort Stats.
//
// Compilation rules:
//
//   - Every dinst compiles as the op baseOp maps it to: a
//     superinstruction as the first op of its run, whose other dinsts
//     compile as themselves. So fused and unfused Code compile to
//     observably identical closure graphs.
//   - One graph per Code, compiled lazily and cached, serves hooked and
//     hook-free runs alike: every branch outcome stores its event
//     behind the m.log.on test; a Prof closure counts into its
//     sequence's ArmTable, inline, when the run has one, and otherwise,
//     as every ProfCond closure does, tests OnProf at run time.
//   - Calls split a block: the call closure pushes a frame whose resume
//     continuation is the already-compiled rest of the block, then
//     returns the callee's entry closure; Ret pops and returns the
//     resume. A call also closes its accounting segment (the callee may
//     trap before the caller's terminator runs). Empty blocks (a lone
//     elided goto) compile to nothing and alias their successor.
//   - An op the compiler does not recognize compiles to a closure that
//     traps, naming the function and the opcode. The compiler handles
//     every op Decode emits, so no well-formed program reaches it.
package interp

import (
	"bytes"
	"fmt"
	"strconv"
)

// blockFn is one compiled execution step. The register window, the
// condition codes and the step counter are threaded through arguments
// and results so they live in CPU registers across a straight-line run;
// a transfer returns the next closure to run (plus the threaded state),
// or a nil closure when the run ends (m.ret / m.err carry the outcome).
type blockFn func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64)

// CompileStats summarizes one program's closure compilation.
type CompileStats struct {
	// CompiledFuncs is the number of functions compiled to closures.
	CompiledFuncs int `json:"compiledFuncs"`
	// ClosureBlocks is the number of non-empty basic blocks compiled.
	ClosureBlocks int `json:"closureBlocks"`
}

// compiledProg is the compiled closure graph of a Code.
type compiledProg struct {
	entries []blockFn // per-function entry closure
	deltas  []Stats   // per-transfer-counter Stats charge
	stats   CompileStats
}

// closFrame is a suspended caller: the continuation to resume, the
// caller's window geometry, and its condition codes.
type closFrame struct {
	resume blockFn
	base   int32
	nRegs  int32 // caller's register count, for arena truncation
	dst    int32
	cmpA   int64
	cmpB   int64
	flags  bool
}

// ClosureMachine executes pre-compiled closure graphs. It is
// observably equivalent to Machine (see the package comment above) and
// may be reused: Run resets all execution state and recycles the
// register arena, frame stack and data memory from the previous run.
// The compiled closure graphs live on the Code and are shared by all
// machines running it.
type ClosureMachine struct {
	Code  *Code
	Input []byte

	// OnBranch, if non-nil, observes the events Machine.OnBranch does,
	// in the same order, but delivered in batches from the machine's
	// chunk: the closures only record each event, and every flush of
	// the chunk — when it fills and before Run returns, on every path —
	// replays it through OnBranch.
	OnBranch func(id int, taken bool)

	// OnBranches, if non-nil, observes the same events in chunks,
	// exactly as Machine.OnBranches does.
	OnBranches func(events []uint32)

	// ArmTables and OnProf receive the profiling events exactly as
	// Machine's fields of the same names do.
	ArmTables []*ArmTable
	OnProf    func(seqID, sub int, value int64)

	// IJmpInsts is the instruction cost charged per indirect jump;
	// DefaultIJmpInsts if zero.
	IJmpInsts uint64

	// MaxSteps aborts execution after (block-granularly — see the
	// package comment above) this many dynamic instructions;
	// DefaultMaxSteps if zero.
	MaxSteps uint64

	// Stats is complete after Run returns; during a run the per-op
	// charges accumulate in transfer counters and are folded in at the
	// end.
	Stats  Stats
	Output bytes.Buffer

	mem       []int64
	regs      []int64
	frames    []closFrame
	counts    []uint64 // per-transfer execution counts, folded by Run
	log       branchLog
	inPos     int
	maxSteps  uint64
	ijmpInsts uint64
	ret       int64
	err       error
	numBuf    [24]byte
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

// reuse returns s resliced to length n and cleared when its capacity
// allows, and a new slice of length n otherwise.
func reuse[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// statsAddScaled adds n executions' worth of d to dst.
func statsAddScaled(dst *Stats, d *Stats, n uint64) {
	dst.Insts += d.Insts * n
	dst.CondBranches += d.CondBranches * n
	dst.TakenBranches += d.TakenBranches * n
	dst.Jumps += d.Jumps * n
	dst.IndirectJumps += d.IndirectJumps * n
	dst.Loads += d.Loads * n
	dst.Stores += d.Stores * n
	dst.Calls += d.Calls * n
	dst.Cmps += d.Cmps * n
	dst.ProfHits += d.ProfHits * n
	dst.SlotNops += d.SlotNops * n
}

// trap ends the run with a runtime error after crediting the partial
// segment executed before the trap point; the cold path of every
// trapping closure.
func (m *ClosureMachine) trap(partial *Stats, fname, msg string) (blockFn, []int64, int64, int64, bool, uint64) {
	statsAddScaled(&m.Stats, partial, 1)
	m.err = &RuntimeError{fname, msg}
	return nil, nil, 0, 0, false, 0
}

// stepTrap ends the run with the step-limit trap.
func (m *ClosureMachine) stepTrap(partial *Stats, fname string) (blockFn, []int64, int64, int64, bool, uint64) {
	return m.trap(partial, fname, fmt.Sprintf("exceeded step limit %d", m.maxSteps))
}

// compiled returns the cached closure graph, compiling it on first use.
// Safe for concurrent machines.
func (c *Code) compiled() *compiledProg {
	c.closOnce.Do(func() { c.clos = compileProg(c) })
	return c.clos
}

// CompileStats compiles the program (if not already compiled) and
// reports the closure compiler's counters.
func (c *Code) CompileStats() CompileStats {
	return c.compiled().stats
}

// Run executes main() and returns its result.
func (m *ClosureMachine) Run() (int64, error) {
	c := m.Code
	if c == nil || c.main < 0 {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	if c.funcs[c.main].nParams != 0 {
		return 0, fmt.Errorf("interp: main must take no parameters")
	}
	cp := c.compiled()
	m.ijmpInsts = m.IJmpInsts
	if m.ijmpInsts == 0 {
		m.ijmpInsts = DefaultIJmpInsts
	}
	m.maxSteps = m.MaxSteps
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}

	// Reset execution state, reusing every arena from a previous run,
	// of this program or another.
	m.mem = reuse(m.mem, int(c.prog.MemSize))
	for _, g := range c.prog.Globals {
		copy(m.mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	m.counts = reuse(m.counts, len(cp.deltas))
	m.inPos = 0
	m.Stats = Stats{}
	m.Output.Reset()
	m.frames = m.frames[:0]
	m.regs = growWindow(m.regs[:0], c.funcs[c.main].nRegs)
	m.ret = 0
	m.err = nil
	m.log.start(m.OnBranch, m.OnBranches)
	m.Stats.Calls++
	m.Stats.Insts++ // the synthetic call of main

	fb := cp.entries[c.main]
	w := m.regs
	var cmpA, cmpB int64
	var flags bool
	var steps uint64
	for fb != nil {
		fb, w, cmpA, cmpB, flags, steps = fb(m, w, cmpA, cmpB, flags, steps)
	}
	// Every path, traps included, ends the loop above. A reused machine
	// keeps no reference to this run's hooks or compiled graph.
	m.log.finish()
	clear(m.frames[:cap(m.frames)])
	// Fold the transfer counters into Stats — on trapped runs too: the
	// counters hold the fully-executed transfers, and the trap closure
	// already credited its partial segment.
	for i, n := range m.counts {
		if n != 0 {
			statsAddScaled(&m.Stats, &cp.deltas[i], n)
		}
	}
	return m.ret, m.err
}

func compileProg(c *Code) *compiledProg {
	// A block holds at most two counters at its end (a branch's
	// outcomes, or a jump, return or fall-through) plus one per call.
	n := 0
	for i := range c.funcs {
		n += 2*len(c.funcs[i].blockStart) + len(c.funcs[i].calls)
	}
	cp := &compiledProg{entries: make([]blockFn, len(c.funcs)), deltas: make([]Stats, 0, n)}
	cc := &funcCompiler{c: c, cp: cp, pcToBlock: map[int32]int{}}
	for i := range c.funcs {
		cc.compileFunc(i)
	}
	return cp
}

// funcCompiler compiles one function's blocks into closures; compileProg
// reuses it, and its scratch, across functions.
type funcCompiler struct {
	c         *Code
	cp        *compiledProg
	f         *dfunc
	fname     string
	blocks    []blockFn
	pcToBlock map[int32]int
	bi        int     // block being compiled; targets > bi are built
	units     []cunit // compileBlock's scratch
}

// newCounter allocates a transfer counter charging delta per execution.
func (cc *funcCompiler) newCounter(delta Stats) int {
	cc.cp.deltas = append(cc.cp.deltas, delta)
	return len(cc.cp.deltas) - 1
}

func (cc *funcCompiler) compileFunc(fi int) {
	f := &cc.c.funcs[fi]
	nb := len(f.blockStart) - 1
	// Closures keep pointers into blocks, so each function needs its own.
	cc.f, cc.fname, cc.blocks = f, f.name, make([]blockFn, nb)
	clear(cc.pcToBlock)
	// Empty blocks share their successor's start PC; iterating high to
	// low makes the map prefer the lowest (empty) block, whose closure
	// aliases the successor below — either resolution is equivalent.
	for bi := nb - 1; bi >= 0; bi-- {
		cc.pcToBlock[f.blockStart[bi]] = bi
	}
	// Compile last block first: every forward edge (fall-through,
	// forward branch arm or jump) then targets an already-built chain
	// that its transfer can call directly, giving each such transfer
	// its own host call site; only backedges bounce off the trampoline
	// through a late-bound slot. Forward edges are acyclic, so direct
	// calls nest at most #blocks deep between bounces. An empty block
	// (elided goto needs a following block, so it is never last) is a
	// pure fall-through aliasing its successor.
	compiled := 0
	for bi := nb - 1; bi >= 0; bi-- {
		if f.blockStart[bi] == f.blockStart[bi+1] {
			cc.blocks[bi] = cc.blocks[bi+1]
			continue
		}
		cc.blocks[bi] = cc.compileBlock(bi)
		compiled++
	}
	cc.cp.entries[fi] = cc.blocks[0]
	cc.cp.stats.CompiledFuncs++
	cc.cp.stats.ClosureBlocks += compiled
}

// blockPtr returns the successor slot for a transfer target PC. The
// slot is filled (or aliased) by the time any closure dereferences it.
func (cc *funcCompiler) blockPtr(pc int32) *blockFn {
	return &cc.blocks[cc.pcToBlock[pc]]
}

// succ resolves a transfer target either to a direct callee (forward
// edge: the target compiled before this block in the reverse build
// order, so its chain head exists) or to a late-bound slot (backedge,
// resolved through the trampoline). Exactly one return is non-nil.
func (cc *funcCompiler) succ(pc int32) (blockFn, *blockFn) {
	t := cc.pcToBlock[pc]
	if t > cc.bi {
		return cc.blocks[t], nil
	}
	return nil, &cc.blocks[t]
}

func isTransfer(op dop) bool {
	switch op {
	case opBr, opCmpBr, opJump, opIJmp, opRet:
		return true
	}
	return false
}

// segCharge accumulates one straight-line op's contribution to its
// segment's Stats delta; transfers and calls close the segment.
func segCharge(op dop, d *dinst, seg *Stats) {
	switch op {
	case opEnter:
		seg.Insts += uint64(d.cost)
	case opCmp:
		seg.Cmps++
	case opLd:
		seg.Loads++
	case opSt:
		seg.Stores++
	case opProf, opProfCond:
		seg.ProfHits++
	}
}

// cunit is one base op of a block: its opcode, its dinst, and the
// segment delta accumulated before it, for trap accounting.
type cunit struct {
	op  dop
	d   *dinst
	pre Stats
}

// compileBlock compiles one non-empty block. A first left-to-right
// pass maps each dinst to its base op and computes each op's
// accumulated segment delta (the Stats its trap or transfer
// must credit for the straight-line ops already executed); the second
// pass compiles right to left so each op's closure captures its
// continuation directly.
func (cc *funcCompiler) compileBlock(bi int) blockFn {
	cc.bi = bi
	f := cc.f
	lo, hi := int(f.blockStart[bi]), int(f.blockStart[bi+1])
	units := cc.units[:0]
	var seg Stats
	for i := lo; i < hi; i++ {
		d := &f.code[i]
		op := baseOp[d.op]
		units = append(units, cunit{op: op, d: d, pre: seg})
		if op == opCall || isTransfer(op) {
			seg = Stats{}
		} else {
			segCharge(op, d, &seg)
		}
	}
	cc.units = units
	var next blockFn
	if !isTransfer(units[len(units)-1].op) {
		// The block ends without a transfer (elided goto): continue
		// straight into the physically following block's chain (built
		// already — reverse order), crediting the trailing segment.
		fallFb := cc.blocks[bi+1]
		if seg == (Stats{}) {
			next = fallFb
		} else {
			id := cc.newCounter(seg)
			next = func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
				m.counts[id]++
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
		}
	}
	for k := len(units) - 1; k >= 0; k-- {
		u := &units[k]
		next = cc.compileUnit(u.op, u.d, next, u.pre)
	}
	return next
}

// plus returns s with add's fields added; a convenience for building
// transfer deltas from a segment prefix.
func plus(s Stats, add Stats) Stats {
	statsAddScaled(&s, &add, 1)
	return s
}

// compileUnit compiles one base op into a closure continuing with
// next. pre is the segment delta accumulated before this op; trap
// closures credit it (plus the op's own charges that precede its trap)
// so aborted-run Stats hold every charge made before the trap point.
func (cc *funcCompiler) compileUnit(op dop, d *dinst, next blockFn, pre Stats) blockFn {
	fname := cc.fname
	switch op {
	case opEnter:
		stepCost := uint64(d.stepCost)
		partial := &Stats{Insts: uint64(d.cost)}
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			return next(m, w, cmpA, cmpB, flags, steps)
		}

	case opMov:
		dst, a := d.dst, d.a
		if a.reg >= 0 {
			src := a.reg
			return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
				w[dst] = w[src]
				return next(m, w, cmpA, cmpB, flags, steps)
			}
		}
		imm := a.imm
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = imm
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAdd:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) + b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opSub:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) - b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opMul:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) * b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opDiv:
		dst, a, b := d.dst, d.a, d.b
		partial := &pre
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			dv := b.val(w)
			if dv == 0 {
				return m.trap(partial, fname, "division by zero")
			}
			w[dst] = a.val(w) / dv
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opRem:
		dst, a, b := d.dst, d.a, d.b
		partial := &pre
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			dv := b.val(w)
			if dv == 0 {
				return m.trap(partial, fname, "remainder by zero")
			}
			w[dst] = a.val(w) % dv
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAnd:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) & b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opOr:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) | b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opXor:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) ^ b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opShl:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) << (uint64(b.val(w)) & 63)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opShr:
		dst, a, b := d.dst, d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = a.val(w) >> (uint64(b.val(w)) & 63)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opNeg:
		dst, a := d.dst, d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = -a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opNot:
		dst, a := d.dst, d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[dst] = ^a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opCmp:
		a, b := d.a, d.b
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			return next(m, w, a.val(w), b.val(w), true, steps)
		}
	case opLd:
		dst, a := d.dst, d.a
		partial := &pre
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.trap(partial, fname, fmt.Sprintf("load address %d out of range", addr))
			}
			w[dst] = m.mem[addr]
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opSt:
		a, b := d.a, d.b
		partial := &pre
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.trap(partial, fname, fmt.Sprintf("store address %d out of range", addr))
			}
			m.mem[addr] = b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opGetChar:
		dst := d.dst
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if m.inPos < len(m.Input) {
				w[dst] = int64(m.Input[m.inPos])
				m.inPos++
			} else {
				w[dst] = -1
			}
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opPutChar:
		a := d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			m.Output.WriteByte(byte(a.val(w)))
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opPutInt:
		a := d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			m.Output.Write(strconv.AppendInt(m.numBuf[:0], a.val(w), 10))
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opProf:
		// ProfHits comes with the segment delta.
		seqID, sub, a := int(d.seqID), int(d.sub), d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if t := armTable(m.ArmTables, seqID); t != nil {
				if v := a.val(w); !t.countDense(v) {
					t.countSearch(v)
				}
			} else if m.OnProf != nil {
				m.OnProf(seqID, sub, a.val(w))
			}
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opProfCond:
		seqID, sub, a, b, relMask := int(d.seqID), int(d.sub), d.a, d.b, d.relMask
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if m.OnProf != nil {
				v := int64(0)
				if maskHolds(relMask, a.val(w), b.val(w)) {
					v = 1
				}
				m.OnProf(seqID, sub, v)
			}
			return next(m, w, cmpA, cmpB, flags, steps)
		}

	case opCall:
		call := &cc.f.calls[d.t1]
		partial := &pre // a trapped call charges only the segment before it
		if call.fn < 0 {
			name := call.name
			return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
				return m.trap(partial, fname, "call to unknown function "+name)
			}
		}
		id := cc.newCounter(plus(pre, Stats{Calls: 1}))
		args := call.args
		dst := call.dst
		callerNRegs := int32(cc.f.nRegs)
		calleeNRegs := cc.c.funcs[call.fn].nRegs
		entryp := &cc.cp.entries[call.fn]
		resume := next
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if len(m.frames) == MaxCallDepth {
				return m.trap(partial, fname, callDepthMsg)
			}
			m.counts[id]++
			// The arena tail is exactly the current window, so the
			// caller's base is the arena length minus the window size.
			base := int32(len(m.regs) - len(w))
			m.frames = append(m.frames, closFrame{
				resume: resume, base: base, nRegs: callerNRegs, dst: dst,
				cmpA: cmpA, cmpB: cmpB, flags: flags,
			})
			newBase := len(m.regs)
			m.regs = growWindow(m.regs, newBase+calleeNRegs)
			neww := m.regs[newBase:]
			// w may point at a stale backing array after growth; its
			// values are still the caller's registers, so argument
			// reads stay valid.
			n := len(args)
			if n > len(neww) {
				n = len(neww)
			}
			for i := 0; i < n; i++ {
				neww[i] = args[i].val(w)
			}
			return *entryp, neww, 0, 0, false, steps
		}

	case opRet:
		stepCost := uint64(d.stepCost) + 1
		full := plus(pre, Stats{Insts: uint64(d.cost) + 1, SlotNops: uint64(d.slotTaken)})
		id := cc.newCounter(full)
		partial := &full // all of it is charged before the step check
		a := d.a
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			m.counts[id]++
			v := a.val(w)
			nf := len(m.frames)
			if nf == 0 {
				m.ret = v
				return nil, nil, 0, 0, false, 0
			}
			fr := &m.frames[nf-1]
			m.frames = m.frames[:nf-1]
			// Truncate the arena to the caller's window end so the
			// invariant len(m.regs) == base+nRegs holds for the next
			// call.
			m.regs = m.regs[:fr.base+fr.nRegs]
			nw := m.regs[fr.base:]
			if fr.dst >= 0 {
				nw[fr.dst] = v
			}
			return fr.resume, nw, fr.cmpA, fr.cmpB, fr.flags, steps
		}

	case opJump:
		stepCost := uint64(d.stepCost) + 1
		full := plus(pre, Stats{Jumps: 1, Insts: uint64(d.cost) + 1, SlotNops: uint64(d.slotTaken)})
		id := cc.newCounter(full)
		partial := &full // all of it is charged before the step check
		takenFb, takenp := cc.succ(d.t1)
		if takenFb != nil {
			return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
				steps += stepCost
				if steps > m.maxSteps {
					return m.stepTrap(partial, fname)
				}
				m.counts[id]++
				return takenFb(m, w, cmpA, cmpB, flags, steps)
			}
		}
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			m.counts[id]++
			return *takenp, w, cmpA, cmpB, flags, steps
		}

	case opBr, opCmpBr:
		return cc.compileBranch(op, d, pre)

	case opIJmp:
		stepCost := uint64(d.stepCost)
		// The per-jump IJmpInsts charge is machine-configured, so it
		// cannot live in the counter delta; the closure charges it
		// eagerly (indirect jumps are rare enough not to matter).
		full := plus(pre, Stats{IndirectJumps: 1, Insts: uint64(d.cost), SlotNops: uint64(d.slotTaken)})
		id := cc.newCounter(full)
		partial := &full
		boundsPartial := &pre
		a := d.a
		pcs := cc.f.tables[d.t1]
		tbl := make([]*blockFn, len(pcs))
		for i, pc := range pcs {
			tbl[i] = cc.blockPtr(pc)
		}
		n := int64(len(tbl))
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			idx := a.val(w)
			if idx < 0 || idx >= n {
				return m.trap(boundsPartial, fname, fmt.Sprintf("indirect jump index %d out of range [0,%d)", idx, n))
			}
			m.Stats.Insts += m.ijmpInsts
			steps += stepCost + m.ijmpInsts
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			m.counts[id]++
			return *tbl[idx], w, cmpA, cmpB, flags, steps
		}
	}

	// Unknown op: the run ends here with a trap.
	msg := fmt.Sprintf("unknown opcode %d", op)
	partial := &pre
	return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
		return m.trap(partial, fname, msg)
	}
}
