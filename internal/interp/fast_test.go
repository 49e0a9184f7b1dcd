package interp

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"branchreorder/internal/ir"
)

// engineResult is everything observable about one execution, from either
// engine.
type engineResult struct {
	ret      int64
	err      string
	out      string
	stats    Stats
	branches []int64 // packed (id, taken) event stream
	profs    []int64 // packed (seq, sub, value) event stream
}

func runReference(p *ir.Program, input []byte, maxSteps uint64) engineResult {
	var r engineResult
	m := &Machine{Prog: p, Input: input, MaxSteps: maxSteps,
		OnBranch: func(id int, taken bool) {
			t := int64(0)
			if taken {
				t = 1
			}
			r.branches = append(r.branches, int64(id), t)
		},
		OnProf: func(seq, sub int, v int64) {
			r.profs = append(r.profs, int64(seq), int64(sub), v)
		}}
	ret, err := m.Run()
	r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func runFast(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) engineResult {
	t.Helper()
	code, err := Decode(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var r engineResult
	m := &FastMachine{Code: code, Input: input, MaxSteps: maxSteps,
		OnBranch: func(id int, taken bool) {
			tk := int64(0)
			if taken {
				tk = 1
			}
			r.branches = append(r.branches, int64(id), tk)
		},
		OnProf: func(seq, sub int, v int64) {
			r.profs = append(r.profs, int64(seq), int64(sub), v)
		}}
	ret, err := m.Run()
	r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// checkEngines runs both engines on a program that must complete and
// demands full observable equality: return value, output, stats, branch
// and profile event streams.
func checkEngines(t *testing.T, name string, p *ir.Program, input []byte) {
	t.Helper()
	ref := runReference(p, input, 0)
	fast := runFast(t, p, input, 0)
	if ref.err != "" || fast.err != "" {
		t.Fatalf("%s: unexpected errors ref=%q fast=%q", name, ref.err, fast.err)
	}
	if ref.ret != fast.ret {
		t.Errorf("%s: ret ref=%d fast=%d", name, ref.ret, fast.ret)
	}
	if ref.out != fast.out {
		t.Errorf("%s: output ref=%q fast=%q", name, ref.out, fast.out)
	}
	if ref.stats != fast.stats {
		t.Errorf("%s: stats\nref:  %+v\nfast: %+v", name, ref.stats, fast.stats)
	}
	if !int64SlicesEqual(ref.branches, fast.branches) {
		t.Errorf("%s: branch event streams differ (%d vs %d events)",
			name, len(ref.branches)/2, len(fast.branches)/2)
	}
	if !int64SlicesEqual(ref.profs, fast.profs) {
		t.Errorf("%s: prof event streams differ", name)
	}
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// TestCallHeavyInstCounts pins the exact dynamic instruction accounting
// of a call-heavy run on both engines: the call instruction is charged
// exactly once (regression for the old Insts--/steps-- double-count
// workaround in exec).
func TestCallHeavyInstCounts(t *testing.T) {
	const n = 1000
	p := countLoopProg(n)
	// Per iteration: Call (1) + back-edge jump (1) + leaf Add (1) +
	// leaf Ret (1); per loop test: Cmp (1) + Br (1), run n+1 times;
	// plus Mov (1), main's Ret (1) and the synthetic call of main (1).
	// FillDelaySlots has not run, so every executed transfer (n+1
	// branches, n jumps, n+1 rets) charges one slot nop.
	want := Stats{
		Insts:         1 + 1 + (n+1)*2 + n*4 + 1,
		CondBranches:  n + 1,
		TakenBranches: 1,
		Jumps:         n,
		Calls:         1 + n,
		Cmps:          n + 1,
		SlotNops:      (n+1)*2 + n,
	}
	for _, eng := range []struct {
		name string
		run  func() engineResult
	}{
		{"reference", func() engineResult { return runReference(p, nil, 0) }},
		{"fast", func() engineResult { return runFast(t, p, nil, 0) }},
	} {
		r := eng.run()
		if r.err != "" {
			t.Fatalf("%s: %s", eng.name, r.err)
		}
		if r.ret != n {
			t.Errorf("%s: ret = %d, want %d", eng.name, r.ret, int64(n))
		}
		if r.stats != want {
			t.Errorf("%s: stats = %+v, want %+v", eng.name, r.stats, want)
		}
	}
}

func TestFastMatchesReferenceOnCompletedRuns(t *testing.T) {
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

	cases := []struct {
		name  string
		prog  *ir.Program
		input string
	}{
		{"loop", countLoopProg(25), ""},
		{"ijmp0", ijmp(), "\x00"},
		{"ijmp1", ijmp(), "\x01"},
		{"flag-reuse", flagReuse(), ""},
		{"nested-calls", nested(), ""},
		{"io", binProg(ir.Add, 1, 2), "unread"},
	}
	for _, c := range cases {
		checkEngines(t, c.name, c.prog, []byte(c.input))
	}
}

// TestFastTrapParity demands the same runtime error text from both
// engines (stats at the trap point are allowed to differ — fast charges
// block-granularly).
func TestFastTrapParity(t *testing.T) {
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

	cases := []struct {
		name string
		prog *ir.Program
		frag string
	}{
		{"div-zero", binProg(ir.Div, 1, 0), "division by zero"},
		{"rem-zero", binProg(ir.Rem, 1, 0), "remainder by zero"},
		{"oob-load", oobLoad, "load address 5 out of range"},
		{"oob-ijmp", oobIJmp, "indirect jump index 7 out of range [0,1)"},
		{"unknown-callee", unknownCallee, "call to unknown function nowhere"},
		{"undef-flags", undefFlags, "conditional branch with undefined condition codes"},
	}
	for _, c := range cases {
		ref := runReference(c.prog, nil, 0)
		fast := runFast(t, c.prog, nil, 0)
		if ref.err != fast.err {
			t.Errorf("%s: error ref=%q fast=%q", c.name, ref.err, fast.err)
		}
		if !strings.Contains(fast.err, c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, fast.err, c.frag)
		}
	}
}

// TestFastStepLimit verifies the fast engine enforces MaxSteps with the
// reference trap text. The abort point is block-granular, so only the
// error is compared.
func TestFastStepLimit(t *testing.T) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	b := f.NewBlock()
	b.Term = ir.Term{Kind: ir.TermGoto, Taken: b}
	p.Funcs = []*ir.Func{f}
	p.Linearize()
	ref := runReference(p, nil, 500)
	fast := runFast(t, p, nil, 500)
	if ref.err != fast.err {
		t.Errorf("error ref=%q fast=%q", ref.err, fast.err)
	}
	if !strings.Contains(fast.err, "exceeded step limit 500") {
		t.Errorf("error %q", fast.err)
	}
}

// TestFastMachineReuse checks that re-running a FastMachine resets all
// execution state: two runs on the same machine are identical, and a
// second machine decoded from the same Code agrees.
func TestFastMachineReuse(t *testing.T) {
	p := countLoopProg(50)
	code, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	m := &FastMachine{Code: code, Input: []byte("abc")}
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
}

func TestFastRunErrors(t *testing.T) {
	noMain := &ir.Program{Funcs: []*ir.Func{{Name: "helper", NRegs: 1}}}
	noMain.Funcs[0].NewBlock().Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	noMain.Linearize()
	code, err := Decode(noMain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&FastMachine{Code: code}).Run(); err == nil ||
		!strings.Contains(err.Error(), "no main function") {
		t.Errorf("no-main error: %v", err)
	}

	badMain := &ir.Program{Funcs: []*ir.Func{{Name: "main", NParams: 1, NRegs: 1}}}
	badMain.Funcs[0].NewBlock().Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	badMain.Linearize()
	code, err = Decode(badMain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&FastMachine{Code: code}).Run(); err == nil ||
		!strings.Contains(err.Error(), "main must take no parameters") {
		t.Errorf("bad-main error: %v", err)
	}
}

// TestDecodeRejectsUnlinearized checks the decode-time guard for programs
// whose block order disagrees with their layout indices.
func TestDecodeRejectsUnlinearized(t *testing.T) {
	p := countLoopProg(1)
	p.Funcs[0].Blocks[1].LayoutIndex = 5
	if _, err := Decode(p); err == nil ||
		!strings.Contains(err.Error(), "not linearized") {
		t.Errorf("decode error: %v", err)
	}
}

// singleBranchProg branches once, on a constant compare, with the given
// branch ID in place of the one linearization assigned.
func singleBranchProg(id int) *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	entry := f.NewBlock()
	a := f.NewBlock()
	z := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.Imm(0), B: ir.Imm(0)}}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: a, Next: z}
	a.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(1)}
	z.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	p.Funcs = []*ir.Func{f}
	p.Linearize()
	entry.Term.BranchID = id
	return p
}

// TestDecodeRejectsBranchIDs: a branch event carries 31 bits of ID, so
// Decode refuses any conditional branch outside [0, 2^31) — rather than
// truncating it — and the reference Machine traps on one when
// OnBranches is set. The largest representable ID round-trips.
func TestDecodeRejectsBranchIDs(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits")
	}
	for _, id64 := range []int64{-1, 1 << 31, 1<<32 + 7} {
		id := int(id64)
		p := singleBranchProg(id)
		want := "branch ID " + strconv.Itoa(id)
		if _, err := Decode(p); err == nil ||
			!strings.Contains(err.Error(), "decode main") || !strings.Contains(err.Error(), want) {
			t.Errorf("id %d: decode error %v, want one naming main and %q", id, err, want)
		}
		// With OnBranches set, neither hook sees the event it traps on.
		var r streamRecorder
		m := &Machine{Prog: p, OnBranch: r.onBranch, OnBranches: r.onBranches}
		var rerr *RuntimeError
		if _, err := m.Run(); !errors.As(err, &rerr) || !strings.Contains(err.Error(), want) {
			t.Errorf("id %d: reference run error %v, want a RuntimeError naming %q", id, err, want)
		}
		checkChunks(t, "id "+strconv.Itoa(id), r.events, r.chunks)
		if len(r.events) != 0 {
			t.Errorf("id %d: OnBranch saw %d events before the trap, want none", id, len(r.events))
		}
		var seen int
		ref := &Machine{Prog: p, OnBranch: func(got int, _ bool) { seen = got }}
		if _, err := ref.Run(); err != nil || seen != id {
			t.Errorf("id %d: OnBranch saw %d (err %v), want the full ID", id, seen, err)
		}
	}

	p := singleBranchProg(MaxBranchID)
	want := []uint32{BranchEvent(MaxBranchID, true)}
	for _, e := range streamEngines {
		got, chunks, errText := e.run(t, p, nil, 0)
		checkChunks(t, e.name, got, chunks)
		if errText != "" || !slices.Equal(got, want) {
			t.Errorf("%s: events %x (err %q), want %x", e.name, got, errText, want)
		}
	}
}

// TestDecodeShape pins the structural properties the decoder promises:
// Cmp+Br fusion, adjacent-goto elision, block charges on terminators,
// and opEnter only for blocks whose terminator decodes away. Decoded
// unfused: superinstruction fusion is a separate pass with its own
// tests, and it would fold the opEnter+opMov prefix this test pins.
func TestDecodeShape(t *testing.T) {
	p := countLoopProg(3)
	code, err := DecodeWith(p, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mainFn *dfunc
	for i := range code.funcs {
		if code.funcs[i].name == "main" {
			mainFn = &code.funcs[i]
		}
	}
	counts := map[dop]int{}
	for i := range mainFn.code {
		counts[mainFn.code[i].op]++
	}
	// entry (Mov + elided goto) -> opEnter + opMov; head (Cmp + Br) ->
	// one fused opCmpBr; body (Call + back-edge goto) -> opCall + opJump;
	// exit -> opRet.
	want := map[dop]int{opEnter: 1, opMov: 1, opCmpBr: 1, opCall: 1, opJump: 1, opRet: 1}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("main decodes with %d of op %d, want %d (all: %v)", counts[op], op, n, counts)
		}
	}
	if counts[opCmp] != 0 || counts[opBr] != 0 {
		t.Errorf("Cmp+Br not fused: %v", counts)
	}
	// The back-edge opJump carries the body block's charge (the Call).
	for i := range mainFn.code {
		in := &mainFn.code[i]
		if in.op == opJump && (in.cost != 1 || in.stepCost != 0) {
			t.Errorf("back-edge jump carries cost=%d stepCost=%d, want 1/0 (the Call)",
				in.cost, in.stepCost)
		}
		if in.op == opCmpBr && (in.cost != 1 || in.stepCost != 1) {
			t.Errorf("fused branch carries cost=%d stepCost=%d, want 1/1 (the Cmp)",
				in.cost, in.stepCost)
		}
	}
}
