package interp

import (
	"strings"
	"testing"

	"branchreorder/internal/ir"
)

func runClosure(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) engineResult {
	t.Helper()
	return runClosureWith(t, p, input, maxSteps, DecodeOptions{Fuse: true})
}

func runClosureWith(t *testing.T, p *ir.Program, input []byte, maxSteps uint64, opts DecodeOptions) engineResult {
	t.Helper()
	code, err := DecodeWith(p, opts)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var r engineResult
	m := &ClosureMachine{Code: code, Input: input, MaxSteps: maxSteps,
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

// checkClosureEngine runs the fast and closure engines on a program
// that must complete and demands full observable equality, fused and
// unfused.
func checkClosureEngine(t *testing.T, name string, p *ir.Program, input []byte) {
	t.Helper()
	for _, fuse := range []bool{true, false} {
		opts := DecodeOptions{Fuse: fuse}
		label := name + "/fused"
		if !fuse {
			label = name + "/unfused"
		}
		fast := runFastWith(t, p, input, 0, opts)
		clos := runClosureWith(t, p, input, 0, opts)
		if fast.err != "" || clos.err != "" {
			t.Fatalf("%s: unexpected errors fast=%q closure=%q", label, fast.err, clos.err)
		}
		if fast.ret != clos.ret {
			t.Errorf("%s: ret fast=%d closure=%d", label, fast.ret, clos.ret)
		}
		if fast.out != clos.out {
			t.Errorf("%s: output fast=%q closure=%q", label, fast.out, clos.out)
		}
		if fast.stats != clos.stats {
			t.Errorf("%s: stats\nfast:    %+v\nclosure: %+v", label, fast.stats, clos.stats)
		}
		if !int64SlicesEqual(fast.branches, clos.branches) {
			t.Errorf("%s: branch event streams differ (%d vs %d events)",
				label, len(fast.branches)/2, len(clos.branches)/2)
		}
		if !int64SlicesEqual(fast.profs, clos.profs) {
			t.Errorf("%s: prof event streams differ", label)
		}
	}
}

func runFastWith(t *testing.T, p *ir.Program, input []byte, maxSteps uint64, opts DecodeOptions) engineResult {
	t.Helper()
	code, err := DecodeWith(p, opts)
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

func TestClosureMatchesFastOnCompletedRuns(t *testing.T) {
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

	cases := []struct {
		name  string
		prog  *ir.Program
		input string
	}{
		{"loop", countLoopProg(25), ""},
		{"ijmp0", ijmp(), "\x00"},
		{"ijmp1", ijmp(), "\x01"},
		{"nested-calls", nested(), ""},
		{"io", binProg(ir.Add, 1, 2), "unread"},
	}
	for _, c := range cases {
		checkClosureEngine(t, c.name, c.prog, []byte(c.input))
	}
}

// TestClosureCallHeavyInstCounts pins the closure engine to the same
// exact Stats the other two engines produce on the call-heavy loop.
func TestClosureCallHeavyInstCounts(t *testing.T) {
	const n = 1000
	p := countLoopProg(n)
	ref := runReference(p, nil, 0)
	clos := runClosure(t, p, nil, 0)
	if clos.err != "" {
		t.Fatal(clos.err)
	}
	if clos.ret != n {
		t.Errorf("ret = %d, want %d", clos.ret, int64(n))
	}
	if clos.stats != ref.stats {
		t.Errorf("stats\nref:     %+v\nclosure: %+v", ref.stats, clos.stats)
	}
}

// TestClosureTrapParity demands byte-identical runtime errors AND
// identical trap-point Stats from the fast and closure engines: the
// closure compiler charges at exactly the positions FastMachine does,
// so unlike the reference engine there is no block-granularity slack
// between the two.
func TestClosureTrapParity(t *testing.T) {
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
		fast := runFast(t, c.prog, nil, 0)
		clos := runClosure(t, c.prog, nil, 0)
		if fast.err != clos.err {
			t.Errorf("%s: error fast=%q closure=%q", c.name, fast.err, clos.err)
		}
		if !strings.Contains(clos.err, c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, clos.err, c.frag)
		}
		if fast.stats != clos.stats {
			t.Errorf("%s: trap-point stats\nfast:    %+v\nclosure: %+v",
				c.name, fast.stats, clos.stats)
		}
	}
}

// TestClosureStepLimit verifies the closure engine aborts at exactly
// the block edge FastMachine aborts at, with the same trap text and
// charges.
func TestClosureStepLimit(t *testing.T) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	b := f.NewBlock()
	b.Insts = []ir.Inst{{Op: ir.Add, Dst: 0, A: ir.R(0), B: ir.Imm(1)}}
	b.Term = ir.Term{Kind: ir.TermGoto, Taken: b}
	p.Funcs = []*ir.Func{f}
	p.Linearize()
	fast := runFast(t, p, nil, 500)
	clos := runClosure(t, p, nil, 500)
	if fast.err != clos.err {
		t.Errorf("error fast=%q closure=%q", fast.err, clos.err)
	}
	if !strings.Contains(clos.err, "exceeded step limit 500") {
		t.Errorf("error %q", clos.err)
	}
	if fast.stats != clos.stats {
		t.Errorf("abort stats\nfast:    %+v\nclosure: %+v", fast.stats, clos.stats)
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

func TestClosureRunErrors(t *testing.T) {
	noMain := &ir.Program{Funcs: []*ir.Func{{Name: "helper", NRegs: 1}}}
	noMain.Funcs[0].NewBlock().Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	noMain.Linearize()
	code, err := Decode(noMain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&ClosureMachine{Code: code}).Run(); err == nil ||
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
	if _, err := (&ClosureMachine{Code: code}).Run(); err == nil ||
		!strings.Contains(err.Error(), "main must take no parameters") {
		t.Errorf("bad-main error: %v", err)
	}

	code, err = Decode(countLoopProg(5))
	if err != nil {
		t.Fatal(err)
	}
	code.funcs[1].code[0].op = 255 // leaf's add
	if _, err := (&ClosureMachine{Code: code}).Run(); err == nil ||
		err.Error() != "runtime error in leaf: unknown opcode 255" {
		t.Errorf("unknown-opcode error: %v", err)
	}
}

// TestCompileStats pins the compiler's counters on a known shape: the
// count-loop program has two functions, and the counters must be
// stable across repeated queries (the graph is cached).
func TestCompileStats(t *testing.T) {
	p := countLoopProg(5)
	code, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	st := code.CompileStats()
	if st.CompiledFuncs != 2 {
		t.Errorf("CompiledFuncs = %d, want 2", st.CompiledFuncs)
	}
	if st.ClosureBlocks == 0 {
		t.Error("ClosureBlocks = 0, want nonzero")
	}
	if again := code.CompileStats(); again != st {
		t.Errorf("unstable stats: %+v then %+v", st, again)
	}
}
