// Combined closure bodies for superinstructions. The closure compiler
// in compile.go decomposes a fused run into per-op closures by default;
// for the curated patterns below it instead emits ONE closure whose
// body performs the whole run — the same effects, in the same order,
// with the same trap accounting — so a fused run costs a single
// indirect transfer exactly as it costs FastMachine a single dispatch.
//
// The transfer that ends a pattern (CmpBr, Br, Jump, Call) is shared
// across patterns as a *Tail struct whose exec method the combined body
// invokes by direct (statically-predicted) call; only the straight-line
// prefix is expanded inline per pattern.
//
// Combined bodies are compiled only for the plain (hook-free) variant:
// the hooked variant always decomposes, which keeps every branch-log /
// OnProf site in exactly one place. Run never selects the plain
// variant when a hook is installed, so the tails omit hook dispatch
// entirely.
package interp

import "fmt"

// heapStats copies a compile-time Stats delta to the heap so trap
// closures can capture a stable pointer.
func heapStats(s Stats) *Stats { h := s; return &h }

// cmpBrTail ends a fused run with a compare-and-branch: the shared
// equivalent of compileUnit's opCmpBr closure. The outcome counter and
// successor are indexed by the relation selector rs (2 <, 1 ==, 0 >) —
// a table lookup instead of a mask test — and a forward successor is
// direct-called through its already-built chain head (direct[rs]),
// while a backedge bounces off the trampoline via slots[rs].
type cmpBrTail struct {
	a, b     darg
	stepCost uint64
	partial  *Stats
	ids      [3]int
	direct   [3]blockFn
	slots    [3]*blockFn
	fname    string
}

func (cc *funcCompiler) newCmpBrTail(d *dinst, pre Stats) *cmpBrTail {
	charge := Stats{CondBranches: 1, Cmps: 1, Insts: uint64(d.cost) + 1}
	stepPartial := plus(pre, charge)
	t := &cmpBrTail{
		a: d.a, b: d.b,
		stepCost: uint64(d.stepCost) + 1,
		partial:  &stepPartial,
		fname:    cc.fname,
	}
	idTaken := cc.newCounter(plus(stepPartial, Stats{TakenBranches: 1, SlotNops: uint64(d.slotTaken)}))
	idFall := cc.newCounter(plus(stepPartial, Stats{SlotNops: uint64(d.slotFall)}))
	takenFb, takenp := cc.succ(d.t1)
	fallFb, fallp := cc.succ(d.t2)
	t.ids, t.direct, t.slots = branchTables(d.relMask, idTaken, idFall, takenFb, fallFb, takenp, fallp)
	return t
}

// brTail ends a fused run with a plain conditional branch on the
// incoming condition codes. The only fused pattern using it starts
// with a compare, so flags are guaranteed defined and the undefined-
// condition-codes trap of the standalone opBr closure cannot fire.
type brTail struct {
	stepCost uint64
	partial  *Stats
	ids      [3]int
	direct   [3]blockFn
	slots    [3]*blockFn
	fname    string
}

func (cc *funcCompiler) newBrTail(d *dinst, pre Stats) *brTail {
	charge := Stats{CondBranches: 1, Insts: uint64(d.cost) + 1}
	stepPartial := plus(pre, charge)
	t := &brTail{
		stepCost: uint64(d.stepCost) + 1,
		partial:  &stepPartial,
		fname:    cc.fname,
	}
	idTaken := cc.newCounter(plus(stepPartial, Stats{TakenBranches: 1, SlotNops: uint64(d.slotTaken)}))
	idFall := cc.newCounter(plus(stepPartial, Stats{SlotNops: uint64(d.slotFall)}))
	takenFb, takenp := cc.succ(d.t1)
	fallFb, fallp := cc.succ(d.t2)
	t.ids, t.direct, t.slots = branchTables(d.relMask, idTaken, idFall, takenFb, fallFb, takenp, fallp)
	return t
}

// jumpTail ends a fused run with an unconditional jump.
type jumpTail struct {
	stepCost uint64
	partial  *Stats
	id       int
	direct   blockFn
	slot     *blockFn
	fname    string
}

func (cc *funcCompiler) newJumpTail(d *dinst, pre Stats) *jumpTail {
	full := plus(pre, Stats{Jumps: 1, Insts: uint64(d.cost) + 1, SlotNops: uint64(d.slotTaken)})
	t := &jumpTail{
		stepCost: uint64(d.stepCost) + 1,
		partial:  &full, // FastMachine charges all of it before its step check
		id:       cc.newCounter(full),
		fname:    cc.fname,
	}
	t.direct, t.slot = cc.succ(d.t1)
	return t
}

// callTail ends a fused run with a call: the shared equivalent of
// compileUnit's opCall closure. Constructed only for known callees;
// unknown ones make compileFused decline so the decomposed path's trap
// closure handles them.
type callTail struct {
	id          int
	args        []darg
	dst         int32
	callerNRegs int32
	calleeNRegs int
	entryp      *blockFn
	resume      blockFn
}

func (cc *funcCompiler) newCallTail(d *dinst, pre Stats, resume blockFn) *callTail {
	call := &cc.f.calls[d.t1]
	return &callTail{
		id:          cc.newCounter(plus(pre, Stats{Calls: 1})),
		args:        call.args,
		dst:         call.dst,
		callerNRegs: int32(cc.f.nRegs),
		calleeNRegs: cc.c.funcs[call.fn].nRegs,
		entryp:      &cc.cp.entries[call.fn],
		resume:      resume,
	}
}

func (t *callTail) exec(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
	m.counts[t.id]++
	base := int32(len(m.regs) - len(w))
	m.frames = append(m.frames, closFrame{
		resume: t.resume, base: base, nRegs: t.callerNRegs, dst: t.dst,
		cmpA: cmpA, cmpB: cmpB, flags: flags,
	})
	newBase := len(m.regs)
	m.regs = growWindow(m.regs, newBase+t.calleeNRegs)
	neww := m.regs[newBase:]
	n := len(t.args)
	if n > len(neww) {
		n = len(neww)
	}
	for i := 0; i < n; i++ {
		neww[i] = t.args[i].val(w)
	}
	return *t.entryp, neww, 0, 0, false, steps
}

// ldTrap and stTrap are the cold out-of-range paths of combined bodies.
func (m *ClosureMachine) ldTrap(partial *Stats, fname string, addr int64) (blockFn, []int64, int64, int64, bool, uint64) {
	return m.trap(partial, fname, fmt.Sprintf("load address %d out of range", addr))
}

func (m *ClosureMachine) stTrap(partial *Stats, fname string, addr int64) (blockFn, []int64, int64, int64, bool, uint64) {
	return m.trap(partial, fname, fmt.Sprintf("store address %d out of range", addr))
}

// compileFused emits one combined closure for a whole superinstruction
// run, or nil when it has no body for the pattern (the caller then
// decomposes the run into per-op closures). u.subs holds the run's
// dinsts in order; u.pres the segment delta before each sub-op, which
// ld/st/enter trap paths credit. Bodies replicate the decomposed
// semantics exactly: same effect order, same traps, same accounting.
func (cc *funcCompiler) compileFused(u *cunit, next blockFn) blockFn {
	fname := cc.fname
	switch u.op {

	// --- straight-line pairs ---
	case opMovMov:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			w[i1.dst] = i1.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opMovAdd:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddMov:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			w[i1.dst] = i1.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddAdd:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddLd:
		i0, i1 := *u.subs[0], *u.subs[1]
		p1 := heapStats(u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opLdAdd:
		i0, i1 := *u.subs[0], *u.subs[1]
		p0 := heapStats(u.pres[0])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddSt:
		i0, i1 := *u.subs[0], *u.subs[1]
		p1 := heapStats(u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p1, fname, addr)
			}
			m.mem[addr] = i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opStAdd:
		i0, i1 := *u.subs[0], *u.subs[1]
		p0 := heapStats(u.pres[0])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opPutCharAdd:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			m.Output.WriteByte(byte(i0.a.val(w)))
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opSubMov:
		i0, i1 := *u.subs[0], *u.subs[1]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) - i0.b.val(w)
			w[i1.dst] = i1.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opEnterMov:
		i0, i1 := *u.subs[0], *u.subs[1]
		stepCost := uint64(i0.stepCost)
		p0 := heapStats(Stats{Insts: uint64(i0.cost)})
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(p0, fname)
			}
			w[i1.dst] = i1.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opStSub:
		i0, i1 := *u.subs[0], *u.subs[1]
		p0 := heapStats(u.pres[0])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			w[i1.dst] = i1.a.val(w) - i1.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}

	// --- compare-and-branch tails ---
	case opAddCmpBr:
		i0 := *u.subs[0]
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opLdCmpBr:
		i0 := *u.subs[0]
		p0 := heapStats(u.pres[0])
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opStCmpBr:
		i0 := *u.subs[0]
		p0 := heapStats(u.pres[0])
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opMovCmpBr:
		i0 := *u.subs[0]
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opGetCharCmpBr:
		i0 := *u.subs[0]
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if m.inPos < len(m.Input) {
				w[i0.dst] = int64(m.Input[m.inPos])
				m.inPos++
			} else {
				w[i0.dst] = -1
			}
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opXorCmpBr:
		i0 := *u.subs[0]
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) ^ i0.b.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opShlCmpBr:
		i0 := *u.subs[0]
		t := cc.newCmpBrTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) << (uint64(i0.b.val(w)) & 63)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}

	// --- jump tails ---
	case opMovJump:
		i0 := *u.subs[0]
		t := cc.newJumpTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opAddJump:
		i0 := *u.subs[0]
		t := cc.newJumpTail(u.subs[1], u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}

	// --- call tails ---
	case opLdCall:
		if cc.f.calls[u.subs[1].t1].fn < 0 {
			return nil // unknown callee: decomposed path traps
		}
		i0 := *u.subs[0]
		p0 := heapStats(u.pres[0])
		t := cc.newCallTail(u.subs[1], u.pres[1], next)
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			return t.exec(m, w, cmpA, cmpB, flags, steps)
		}

	// --- straight-line triples ---
	case opLdAddSt:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p0 := heapStats(u.pres[0])
		p2 := heapStats(u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			addr = i2.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p2, fname, addr)
			}
			m.mem[addr] = i2.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddLdAdd:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p1 := heapStats(u.pres[1])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			w[i2.dst] = i2.a.val(w) + i2.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opStAddMov:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p0 := heapStats(u.pres[0])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			w[i2.dst] = i2.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opMovAddMov:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			w[i2.dst] = i2.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opEnterMovMov:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		stepCost := uint64(i0.stepCost)
		p0 := heapStats(Stats{Insts: uint64(i0.cost)})
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(p0, fname)
			}
			w[i1.dst] = i1.a.val(w)
			w[i2.dst] = i2.a.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}

	// --- triples with tails ---
	case opAddLdCmpBr:
		i0, i1 := *u.subs[0], *u.subs[1]
		p1 := heapStats(u.pres[1])
		t := cc.newCmpBrTail(u.subs[2], u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opAddLdCall:
		if cc.f.calls[u.subs[2].t1].fn < 0 {
			return nil // unknown callee: decomposed path traps
		}
		i0, i1 := *u.subs[0], *u.subs[1]
		p1 := heapStats(u.pres[1])
		t := cc.newCallTail(u.subs[2], u.pres[2], next)
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			return t.exec(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddMovJump:
		i0, i1 := *u.subs[0], *u.subs[1]
		t := cc.newJumpTail(u.subs[2], u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			w[i1.dst] = i1.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opPutCharAddJump:
		i0, i1 := *u.subs[0], *u.subs[1]
		t := cc.newJumpTail(u.subs[2], u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			m.Output.WriteByte(byte(i0.a.val(w)))
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opStMovJump:
		i0, i1 := *u.subs[0], *u.subs[1]
		p0 := heapStats(u.pres[0])
		t := cc.newJumpTail(u.subs[2], u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			w[i1.dst] = i1.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opSubMovJump:
		i0, i1 := *u.subs[0], *u.subs[1]
		t := cc.newJumpTail(u.subs[2], u.pres[2])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) - i0.b.val(w)
			w[i1.dst] = i1.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}

	// --- quads ---
	case opLdAddStCmpBr:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p0 := heapStats(u.pres[0])
		p2 := heapStats(u.pres[2])
		t := cc.newCmpBrTail(u.subs[3], u.pres[3])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			addr = i2.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p2, fname, addr)
			}
			m.mem[addr] = i2.b.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opAddLdAddLd:
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		p1 := heapStats(u.pres[1])
		p3 := heapStats(u.pres[3])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			w[i2.dst] = i2.a.val(w) + i2.b.val(w)
			addr = i3.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p3, fname, addr)
			}
			w[i3.dst] = m.mem[addr]
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opMovAddMovCmpBr:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		t := cc.newCmpBrTail(u.subs[3], u.pres[3])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			w[i2.dst] = i2.a.val(w)
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opLdAddStJump:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p0 := heapStats(u.pres[0])
		p2 := heapStats(u.pres[2])
		t := cc.newJumpTail(u.subs[3], u.pres[3])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			addr = i2.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p2, fname, addr)
			}
			m.mem[addr] = i2.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opStAddMovJump:
		i0, i1, i2 := *u.subs[0], *u.subs[1], *u.subs[2]
		p0 := heapStats(u.pres[0])
		t := cc.newJumpTail(u.subs[3], u.pres[3])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p0, fname, addr)
			}
			m.mem[addr] = i0.b.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			w[i2.dst] = i2.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}

	// --- quints ---
	case opAddLdAddLdCall:
		if cc.f.calls[u.subs[4].t1].fn < 0 {
			return nil // unknown callee: decomposed path traps
		}
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		p1 := heapStats(u.pres[1])
		p3 := heapStats(u.pres[3])
		t := cc.newCallTail(u.subs[4], u.pres[4], next)
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			w[i2.dst] = i2.a.val(w) + i2.b.val(w)
			addr = i3.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p3, fname, addr)
			}
			w[i3.dst] = m.mem[addr]
			return t.exec(m, w, cmpA, cmpB, flags, steps)
		}
	case opAddLdAddLdCmpBr:
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		p1 := heapStats(u.pres[1])
		p3 := heapStats(u.pres[3])
		t := cc.newCmpBrTail(u.subs[4], u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			w[i2.dst] = i2.a.val(w) + i2.b.val(w)
			addr = i3.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p3, fname, addr)
			}
			w[i3.dst] = m.mem[addr]
			cmpA, cmpB = t.a.val(w), t.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}

	case opAddAddAddLdSt:
		i0, i1, i2, i3, i4 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3], *u.subs[4]
		p3 := heapStats(u.pres[3])
		p4 := heapStats(u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			w[i2.dst] = i2.a.val(w) + i2.b.val(w)
			addr := i3.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p3, fname, addr)
			}
			w[i3.dst] = m.mem[addr]
			addr = i4.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p4, fname, addr)
			}
			m.mem[addr] = i4.b.val(w)
			return next(m, w, cmpA, cmpB, flags, steps)
		}
	case opPcOrShlPcJump:
		// The two ProfConds are hookless no-ops in the plain variant
		// (their ProfHits ride in the jump counter's segment delta).
		i1, i2 := *u.subs[1], *u.subs[2]
		t := cc.newJumpTail(u.subs[4], u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i1.dst] = i1.a.val(w) | i1.b.val(w)
			w[i2.dst] = i2.a.val(w) << (uint64(i2.b.val(w)) & 63)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opLdAddStMovJump:
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		p0 := heapStats(u.pres[0])
		p2 := heapStats(u.pres[2])
		t := cc.newJumpTail(u.subs[4], u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			addr := i0.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p0, fname, addr)
			}
			w[i0.dst] = m.mem[addr]
			w[i1.dst] = i1.a.val(w) + i1.b.val(w)
			addr = i2.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.stTrap(p2, fname, addr)
			}
			m.mem[addr] = i2.b.val(w)
			w[i3.dst] = i3.a.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	case opCmpMulCmpAndBr:
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		t := cc.newBrTail(u.subs[4], u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			cmpA, cmpB = i0.a.val(w), i0.b.val(w)
			w[i1.dst] = i1.a.val(w) * i1.b.val(w)
			cmpA, cmpB = i2.a.val(w), i2.b.val(w)
			w[i3.dst] = i3.a.val(w) & i3.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[t.ids[rs]]++
			if fb := t.direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *t.slots[rs], w, cmpA, cmpB, true, steps
		}
	case opAddLdPutCharAddJump:
		i0, i1, i2, i3 := *u.subs[0], *u.subs[1], *u.subs[2], *u.subs[3]
		p1 := heapStats(u.pres[1])
		t := cc.newJumpTail(u.subs[4], u.pres[4])
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			w[i0.dst] = i0.a.val(w) + i0.b.val(w)
			addr := i1.a.val(w)
			if addr < 0 || addr >= int64(len(m.mem)) {
				return m.ldTrap(p1, fname, addr)
			}
			w[i1.dst] = m.mem[addr]
			m.Output.WriteByte(byte(i2.a.val(w)))
			w[i3.dst] = i3.a.val(w) + i3.b.val(w)
			steps += t.stepCost
			if steps > m.maxSteps {
				return m.stepTrap(t.partial, t.fname)
			}
			m.counts[t.id]++
			if t.direct != nil {
				return t.direct(m, w, cmpA, cmpB, flags, steps)
			}
			return *t.slot, w, cmpA, cmpB, flags, steps
		}
	}
	return nil
}
