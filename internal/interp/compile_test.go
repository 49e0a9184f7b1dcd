package interp

import (
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/ir"
)

// engineResult is everything observable about one execution, from
// either engine.
type engineResult struct {
	ret      int64
	err      string
	out      string
	stats    Stats
	branches []int64 // packed (id, taken) event stream
	profs    []int64 // packed (seq, sub, value) event stream
}

func (r *engineResult) onBranch(id int, taken bool) {
	tk := int64(0)
	if taken {
		tk = 1
	}
	r.branches = append(r.branches, int64(id), tk)
}

func (r *engineResult) onProf(seq, sub int, v int64) {
	r.profs = append(r.profs, int64(seq), int64(sub), v)
}

func (r *engineResult) finish(ret int64, out string, st Stats, err error) engineResult {
	r.ret, r.out, r.stats = ret, out, st
	if err != nil {
		r.err = err.Error()
	}
	return *r
}

func runReference(p *ir.Program, input []byte, maxSteps uint64) engineResult {
	var r engineResult
	m := &Machine{Prog: p, Input: input, MaxSteps: maxSteps, OnBranch: r.onBranch, OnProf: r.onProf}
	ret, err := m.Run()
	return r.finish(ret, m.Output.String(), m.Stats, err)
}

func runClosure(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) engineResult {
	t.Helper()
	code, err := Decode(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return runMachine(&ClosureMachine{MaxSteps: maxSteps}, code, input)
}

// runMachine runs code on m, which may have run before, with both
// hooks set.
func runMachine(m *ClosureMachine, code *Code, input []byte) engineResult {
	var r engineResult
	m.Code, m.Input, m.OnBranch, m.OnProf = code, input, r.onBranch, r.onProf
	ret, err := m.Run()
	return r.finish(ret, m.Output.String(), m.Stats, err)
}

// compareEngineResults demands equal errors, output, return values
// (of completed runs), event streams and, with wantStats, Stats.
func compareEngineResults(t *testing.T, label string, want, got engineResult, wantStats bool) {
	t.Helper()
	if want.err != got.err {
		t.Errorf("%s: error %q, want %q", label, got.err, want.err)
	}
	if want.out != got.out {
		t.Errorf("%s: output %q, want %q", label, got.out, want.out)
	}
	if want.err == "" && want.ret != got.ret {
		t.Errorf("%s: ret %d, want %d", label, got.ret, want.ret)
	}
	if wantStats && want.stats != got.stats {
		t.Errorf("%s: stats\ngot:  %+v\nwant: %+v", label, got.stats, want.stats)
	}
	if !slices.Equal(want.branches, got.branches) {
		t.Errorf("%s: branch event streams differ", label)
	}
	if !slices.Equal(want.profs, got.profs) {
		t.Errorf("%s: prof event streams differ", label)
	}
}

// countLoopProg is a call-heavy loop: main calls leaf() n times through
// a compare/branch loop with a real back-edge jump.
func countLoopProg(n int64) *ir.Program {
	p := &ir.Program{}
	leaf := &ir.Func{Name: "leaf", NParams: 1, NRegs: 2}
	lb := leaf.NewBlock()
	lb.Insts = []ir.Inst{{Op: ir.Add, Dst: 1, A: ir.R(0), B: ir.Imm(1)}}
	lb.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}

	mainFn := &ir.Func{Name: "main", NRegs: 1}
	entry := mainFn.NewBlock()
	head := mainFn.NewBlock()
	body := mainFn.NewBlock()
	exit := mainFn.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Mov, Dst: 0, A: ir.Imm(0)}}
	entry.Term = ir.Term{Kind: ir.TermGoto, Taken: head}
	head.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(n)}}
	head.Term = ir.Term{Kind: ir.TermBr, Rel: ir.GE, Taken: exit, Next: body}
	body.Insts = []ir.Inst{{Op: ir.Call, Dst: 0, Callee: "leaf", Args: []ir.Operand{ir.R(0)}}}
	body.Term = ir.Term{Kind: ir.TermGoto, Taken: head}
	exit.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}

	p.Funcs = []*ir.Func{mainFn, leaf}
	p.Linearize()
	return p
}

// runCase is one program and its input.
type runCase struct {
	name  string
	prog  *ir.Program
	input string
}

// completedRunCases are small programs that run to completion, each
// stressing one engine path.
func completedRunCases() []runCase {
	// An indirect-jump dispatcher: getchar picks a table entry.
	ijmp := func() *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		entry := f.NewBlock()
		b1 := f.NewBlock()
		b2 := f.NewBlock()
		entry.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 0}}
		entry.Term = ir.Term{Kind: ir.TermIJmp, Index: ir.R(0), Targets: []*ir.Block{b1, b2}}
		b1.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(100)}
		b2.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(200)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}

	// Flags set by a Cmp in one block, consumed by branches in later
	// blocks (redundant-comparison reuse): the fused Cmp+Br must still
	// leave the condition codes behind.
	flagReuse := func() *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		entry := f.NewBlock()
		mid := f.NewBlock()
		yes := f.NewBlock()
		no := f.NewBlock()
		entry.Insts = []ir.Inst{
			{Op: ir.Mov, Dst: 0, A: ir.Imm(7)},
			{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(5)},
		}
		entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.LT, Taken: no, Next: mid}
		// mid re-branches on the same flags without a new Cmp.
		mid.Term = ir.Term{Kind: ir.TermBr, Rel: ir.GT, Taken: yes, Next: no}
		yes.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(1)}
		no.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}

	// Nested calls with argument passing and profiling instrumentation.
	nested := func() *ir.Program {
		p := &ir.Program{}
		inner := &ir.Func{Name: "inner", NParams: 2, NRegs: 3}
		ib := inner.NewBlock()
		ib.Insts = []ir.Inst{
			{Op: ir.Mul, Dst: 2, A: ir.R(0), B: ir.R(1)},
			{Op: ir.Prof, SeqID: 1, Sub: 0, A: ir.R(2)},
		}
		ib.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(2)}
		outer := &ir.Func{Name: "outer", NParams: 1, NRegs: 2}
		ob := outer.NewBlock()
		ob.Insts = []ir.Inst{
			{Op: ir.Call, Dst: 1, Callee: "inner", Args: []ir.Operand{ir.R(0), ir.Imm(3)}},
			{Op: ir.PutInt, A: ir.R(1)},
			{Op: ir.PutChar, A: ir.Imm('\n')},
		}
		ob.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}
		mainFn := &ir.Func{Name: "main", NRegs: 1}
		mb := mainFn.NewBlock()
		mb.Insts = []ir.Inst{{Op: ir.Call, Dst: 0, Callee: "outer", Args: []ir.Operand{ir.Imm(14)}}}
		mb.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
		p.Funcs = []*ir.Func{mainFn, outer, inner}
		p.Linearize()
		return p
	}

	return []runCase{
		{"loop", countLoopProg(25), ""},
		{"ijmp0", ijmp(), "\x00"},
		{"ijmp1", ijmp(), "\x01"},
		{"flag-reuse", flagReuse(), ""},
		{"nested-calls", nested(), ""},
		{"io", binProg(ir.Add, 1, 2), "unread"},
	}
}

// The TestFast* tests keep the names of the flat-decoded interpreter's
// tests whose checks they carry on; that engine is gone, and they run
// the closure engine, which replaced it.

// TestFastMatchesReferenceOnCompletedRuns holds the closure engine to
// the reference Machine on programs that complete: return value,
// output, Stats and both event streams must be equal.
func TestFastMatchesReferenceOnCompletedRuns(t *testing.T) {
	for _, c := range completedRunCases() {
		ref := runReference(c.prog, []byte(c.input), 0)
		clos := runClosure(t, c.prog, []byte(c.input), 0)
		if ref.err != "" || clos.err != "" {
			t.Fatalf("%s: unexpected errors ref=%q closure=%q", c.name, ref.err, clos.err)
		}
		compareEngineResults(t, c.name, ref, clos, true)
	}
}

// callHeavyStats is the exact dynamic instruction accounting of
// countLoopProg(n): the call instruction is charged exactly once
// (regression for the old Insts--/steps-- double-count workaround in
// exec).
func callHeavyStats(n uint64) Stats {
	// Per iteration: Call (1) + back-edge jump (1) + leaf Add (1) +
	// leaf Ret (1); per loop test: Cmp (1) + Br (1), run n+1 times;
	// plus Mov (1), main's Ret (1) and the synthetic call of main (1).
	// FillDelaySlots has not run, so every executed transfer (n+1
	// branches, n jumps, n+1 rets) charges one slot nop.
	return Stats{
		Insts:         1 + 1 + (n+1)*2 + n*4 + 1,
		CondBranches:  n + 1,
		TakenBranches: 1,
		Jumps:         n,
		Calls:         1 + n,
		Cmps:          n + 1,
		SlotNops:      (n+1)*2 + n,
	}
}

// TestCallHeavyInstCounts pins the reference Machine's Stats on a
// call-heavy run.
func TestCallHeavyInstCounts(t *testing.T) {
	const n = 1000
	r := runReference(countLoopProg(n), nil, 0)
	if r.err != "" {
		t.Fatal(r.err)
	}
	if r.ret != n {
		t.Errorf("ret = %d, want %d", r.ret, int64(n))
	}
	if want := callHeavyStats(n); r.stats != want {
		t.Errorf("stats = %+v, want %+v", r.stats, want)
	}
}

// TestClosureCallHeavyInstCounts pins the closure engine to the Stats
// TestCallHeavyInstCounts pins the reference to.
func TestClosureCallHeavyInstCounts(t *testing.T) {
	const n = 1000
	r := runClosure(t, countLoopProg(n), nil, 0)
	if r.err != "" {
		t.Fatal(r.err)
	}
	if r.ret != n {
		t.Errorf("ret = %d, want %d", r.ret, int64(n))
	}
	if want := callHeavyStats(n); r.stats != want {
		t.Errorf("stats = %+v, want %+v", r.stats, want)
	}
}

// trapCase is a program that traps, a fragment of its trap text, and
// the closure engine's Stats at the trap point.
type trapCase struct {
	name  string
	prog  *ir.Program
	frag  string
	stats Stats
}

// trapCases covers every runtime trap the engines share. The closure
// engine charges a block's instructions at its terminator, so a trap
// mid-block leaves out the Insts of the block it stops in, where the
// reference counts each instruction as it executes; the other counters
// are charged as each op runs. The pinned Stats are those of the
// flat-decoded interpreter the closure engine replaced, whose charge
// positions it kept.
func trapCases() []trapCase {
	oobLoad := &ir.Program{MemSize: 2}
	f := &ir.Func{Name: "main", NRegs: 1}
	b := f.NewBlock()
	b.Insts = []ir.Inst{{Op: ir.Ld, Dst: 0, A: ir.Imm(5)}}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
	oobLoad.Funcs = []*ir.Func{f}
	oobLoad.Linearize()

	oobIJmp := func() *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		entry := f.NewBlock()
		b1 := f.NewBlock()
		entry.Term = ir.Term{Kind: ir.TermIJmp, Index: ir.Imm(7), Targets: []*ir.Block{b1}}
		b1.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}()

	unknownCallee := func() *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		b := f.NewBlock()
		b.Insts = []ir.Inst{{Op: ir.Call, Dst: 0, Callee: "nowhere"}}
		b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}()

	undefFlags := func() *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		entry := f.NewBlock()
		a := f.NewBlock()
		z := f.NewBlock()
		entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: a, Next: z}
		a.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(1)}
		z.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}()

	// A completed block (store, compare, taken branch), then a load, a
	// compare and an out-of-range load in the block the run stops in.
	midBlock := func() *ir.Program {
		p := &ir.Program{MemSize: 2}
		f := &ir.Func{Name: "main", NRegs: 1}
		entry := f.NewBlock()
		a := f.NewBlock()
		z := f.NewBlock()
		entry.Insts = []ir.Inst{{Op: ir.St, A: ir.Imm(0), B: ir.Imm(7)}, {Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)}}
		entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: a, Next: z}
		a.Insts = []ir.Inst{
			{Op: ir.Ld, Dst: 0, A: ir.Imm(0)},
			{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(7)},
			{Op: ir.Ld, Dst: 0, A: ir.Imm(9)},
		}
		a.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
		z.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}()

	// main calls rec, which adds one to a register and calls itself
	// until a call past MaxCallDepth traps.
	endless := func() *ir.Program {
		p := &ir.Program{}
		rec := &ir.Func{Name: "rec", NRegs: 1}
		rb := rec.NewBlock()
		rb.Insts = []ir.Inst{
			{Op: ir.Add, Dst: 0, A: ir.R(0), B: ir.Imm(1)},
			{Op: ir.Call, Dst: 0, Callee: "rec"},
		}
		rb.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
		mainFn := &ir.Func{Name: "main", NRegs: 1}
		mb := mainFn.NewBlock()
		mb.Insts = []ir.Inst{{Op: ir.Call, Dst: 0, Callee: "rec"}}
		mb.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
		p.Funcs = []*ir.Func{mainFn, rec}
		p.Linearize()
		return p
	}()

	// Every trap in the first block charges only the synthetic call of
	// main.
	entryTrap := Stats{Insts: 1, Calls: 1}
	return []trapCase{
		{"div-zero", binProg(ir.Div, 1, 0), "division by zero", entryTrap},
		{"rem-zero", binProg(ir.Rem, 1, 0), "remainder by zero", entryTrap},
		{"oob-load", oobLoad, "load address 5 out of range", entryTrap},
		{"oob-ijmp", oobIJmp, "indirect jump index 7 out of range [0,1)", entryTrap},
		{"unknown-callee", unknownCallee, "call to unknown function nowhere", entryTrap},
		{"undef-flags", undefFlags, "conditional branch with undefined condition codes", entryTrap},
		{"call-depth", endless, "runtime error in rec: exceeded call depth 16384",
			Stats{Insts: 1, Calls: 16385}},
		{"mid-block", midBlock, "load address 9 out of range",
			Stats{Insts: 4, CondBranches: 1, TakenBranches: 1, Loads: 1, Stores: 1, Calls: 1, Cmps: 2, SlotNops: 1}},
	}
}

// TestFastTrapParity demands the reference Machine's runtime error
// text from the closure engine.
func TestFastTrapParity(t *testing.T) {
	for _, c := range trapCases() {
		ref := runReference(c.prog, nil, 0)
		if !strings.Contains(ref.err, c.frag) {
			t.Errorf("%s: reference error %q missing %q", c.name, ref.err, c.frag)
		}
		if clos := runClosure(t, c.prog, nil, 0); ref.err != clos.err {
			t.Errorf("%s: error ref=%q closure=%q", c.name, ref.err, clos.err)
		}
	}
}

// TestClosureTrapParity pins the closure engine's trap-point Stats.
func TestClosureTrapParity(t *testing.T) {
	for _, c := range trapCases() {
		clos := runClosure(t, c.prog, nil, 0)
		if !strings.Contains(clos.err, c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, clos.err, c.frag)
		}
		if clos.stats != c.stats {
			t.Errorf("%s: trap-point stats\ngot:  %+v\nwant: %+v", c.name, clos.stats, c.stats)
		}
	}
}

// stepLimitCases are endless loops, each with the closure engine's Stats
// when it aborts at a step limit of 500. The budget is charged
// block-granularly, so the run stops at a block edge: on a loop whose
// block holds an Add it runs one iteration more than the reference,
// which stops mid-block. The pinned Stats are those of the flat-decoded
// interpreter the closure engine replaced.
func stepLimitCases() []struct {
	name  string
	prog  *ir.Program
	stats Stats
} {
	loop := func(insts ...ir.Inst) *ir.Program {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		b := f.NewBlock()
		b.Insts = insts
		b.Term = ir.Term{Kind: ir.TermGoto, Taken: b}
		p.Funcs = []*ir.Func{f}
		p.Linearize()
		return p
	}
	return []struct {
		name  string
		prog  *ir.Program
		stats Stats
	}{
		{"add-loop", loop(ir.Inst{Op: ir.Add, Dst: 0, A: ir.R(0), B: ir.Imm(1)}),
			Stats{Insts: 503, Jumps: 251, Calls: 1, SlotNops: 251}},
		{"empty-loop", loop(), Stats{Insts: 502, Jumps: 501, Calls: 1, SlotNops: 501}},
	}
}

// TestFastStepLimit verifies the closure engine enforces MaxSteps with
// the reference trap text.
func TestFastStepLimit(t *testing.T) {
	for _, c := range stepLimitCases() {
		ref := runReference(c.prog, nil, 500)
		if !strings.Contains(ref.err, "exceeded step limit 500") {
			t.Errorf("%s: reference error %q", c.name, ref.err)
		}
		if clos := runClosure(t, c.prog, nil, 500); ref.err != clos.err {
			t.Errorf("%s: error ref=%q closure=%q", c.name, ref.err, clos.err)
		}
	}
}

// TestClosureStepLimit pins where the closure engine aborts at a step
// limit.
func TestClosureStepLimit(t *testing.T) {
	for _, c := range stepLimitCases() {
		clos := runClosure(t, c.prog, nil, 500)
		if !strings.Contains(clos.err, "exceeded step limit 500") {
			t.Errorf("%s: error %q", c.name, clos.err)
		}
		if clos.stats != c.stats {
			t.Errorf("%s: abort stats\ngot:  %+v\nwant: %+v", c.name, clos.stats, c.stats)
		}
	}
}

// TestFastMachineReuse carries one machine from program to program, as
// Exec's pool carries its machines, through runs that trap mid-call and
// mid-block: each run must equal a run on a fresh machine, so no state
// of one program leaks into the next.
func TestFastMachineReuse(t *testing.T) {
	// Reads the word mid-block stores before it traps.
	load := &ir.Program{MemSize: 2}
	f := &ir.Func{Name: "main", NRegs: 1}
	b := f.NewBlock()
	b.Insts = []ir.Inst{{Op: ir.Ld, Dst: 0, A: ir.Imm(0)}}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
	load.Funcs = []*ir.Func{f}
	load.Linearize()

	var cases []runCase
	for _, c := range trapCases() {
		cases = append(cases, runCase{c.name, c.prog, ""})
	}
	cases = append(cases, runCase{"load", load, ""})
	cases = append(cases, completedRunCases()...)
	reused := &ClosureMachine{}
	for _, c := range cases {
		code, err := Decode(c.prog)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		fresh := runMachine(&ClosureMachine{}, code, []byte(c.input))
		compareEngineResults(t, c.name, fresh, runMachine(reused, code, []byte(c.input)), true)
	}
}

// TestClosureMachineReuse checks that re-running a ClosureMachine
// resets all execution state, and that a second machine sharing the
// same Code (and thus the same cached closure graph) agrees.
func TestClosureMachineReuse(t *testing.T) {
	p := countLoopProg(50)
	code, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	m := &ClosureMachine{Code: code, Input: []byte("abc")}
	r1, err1 := m.Run()
	out1 := m.Output.String()
	st1 := m.Stats
	r2, err2 := m.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if r1 != r2 || out1 != m.Output.String() || st1 != m.Stats {
		t.Errorf("second run diverged: ret %d vs %d, stats %+v vs %+v",
			r1, r2, st1, m.Stats)
	}
	m2 := &ClosureMachine{Code: code, Input: []byte("abc")}
	r3, err3 := m2.Run()
	if err3 != nil {
		t.Fatal(err3)
	}
	if r3 != r1 || m2.Output.String() != out1 || m2.Stats != st1 {
		t.Errorf("shared-Code machine diverged")
	}
}

// TestClosureHookVariants checks that hooked and hook-free runs of the
// one compiled graph agree: a hooked run (every branch outcome logs its
// event) and a bare run (the log is off) produce the same result,
// output and stats.
func TestClosureHookVariants(t *testing.T) {
	p := countLoopProg(30)
	code, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	hooked := &ClosureMachine{Code: code,
		OnBranch: func(id int, taken bool) { events++ }}
	hr, herr := hooked.Run()
	plain := &ClosureMachine{Code: code}
	pr, perr := plain.Run()
	if herr != nil || perr != nil {
		t.Fatalf("errors: %v, %v", herr, perr)
	}
	if events == 0 {
		t.Error("hooked run observed no branches")
	}
	if hr != pr || hooked.Stats != plain.Stats || hooked.Output.String() != plain.Output.String() {
		t.Errorf("variants diverged: ret %d vs %d, stats %+v vs %+v",
			hr, pr, hooked.Stats, plain.Stats)
	}
}

// echoProg copies its input to its output.
func echoProg() *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	p.Funcs = append(p.Funcs, f)
	head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock()
	head.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 0}, {Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)}}
	head.Term = ir.Term{Kind: ir.TermBr, Rel: ir.LT, Taken: exit, Next: body}
	body.Insts = []ir.Inst{{Op: ir.PutChar, A: ir.R(0)}}
	body.Term = ir.Term{Kind: ir.TermGoto, Taken: head}
	exit.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	p.Linearize()
	return p
}

// TestExecOutputOutlivesReuse checks that the output Exec returns stays
// intact after later Execs, which may run on the same pooled machine.
func TestExecOutputOutlivesReuse(t *testing.T) {
	p := echoProg()
	var outs [][]byte
	inputs := []string{"first", "XXXXX", "", "longer than the first input"}
	for _, in := range inputs {
		_, _, out, err := Exec(EngineClosure, p, nil, []byte(in), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	for i, in := range inputs {
		if string(outs[i]) != in {
			t.Errorf("output of Exec %d = %q, want %q", i, outs[i], in)
		}
	}
}

// TestFastRunErrors checks that Exec refuses a program without a
// runnable main with the same error under both engines.
func TestFastRunErrors(t *testing.T) {
	noMain := &ir.Program{Funcs: []*ir.Func{{Name: "helper", NRegs: 1}}}
	noMain.Funcs[0].NewBlock().Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	noMain.Linearize()

	badMain := &ir.Program{Funcs: []*ir.Func{{Name: "main", NParams: 1, NRegs: 1}}}
	badMain.Funcs[0].NewBlock().Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	badMain.Linearize()

	for _, c := range []struct {
		name string
		prog *ir.Program
		frag string
	}{
		{"no-main", noMain, "no main function"},
		{"bad-main", badMain, "main must take no parameters"},
	} {
		_, _, _, refErr := Exec(EngineReference, c.prog, nil, nil, nil, nil)
		_, _, _, closErr := Exec(EngineClosure, c.prog, nil, nil, nil, nil)
		if refErr == nil || closErr == nil || !strings.Contains(closErr.Error(), c.frag) ||
			refErr.Error() != closErr.Error() {
			t.Errorf("%s: errors ref=%v closure=%v, want the same error naming %q",
				c.name, refErr, closErr, c.frag)
		}
	}
}

// TestClosureRunErrors checks the errors only the closure engine
// raises: a machine without Code, and an opcode its compiler does not
// know.
func TestClosureRunErrors(t *testing.T) {
	if _, err := (&ClosureMachine{}).Run(); err == nil ||
		!strings.Contains(err.Error(), "no main function") {
		t.Errorf("nil-Code error: %v", err)
	}

	code, err := Decode(countLoopProg(5))
	if err != nil {
		t.Fatal(err)
	}
	code.funcs[1].code[0].op = 255 // leaf's add
	if _, err := (&ClosureMachine{Code: code}).Run(); err == nil ||
		err.Error() != "runtime error in leaf: unknown opcode 255" {
		t.Errorf("unknown-opcode error: %v", err)
	}
}
