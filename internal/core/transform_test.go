package core

import (
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
)

// buildEqProgram makes: main() { v = getchar(); if v==10 ret 100; if
// v==20 ret 101; if v==30 ret 102; ret 999 } as raw IR.
func buildEqProgram() (*ir.Program, *ir.Func) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 4}
	p.Funcs = append(p.Funcs, f)
	head := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	e0 := f.NewBlock()
	e1 := f.NewBlock()
	e2 := f.NewBlock()
	def := f.NewBlock()
	head.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 1}}
	condBlock(head, 1, 10, ir.EQ, e0, b1)
	condBlock(b1, 1, 20, ir.EQ, e1, b2)
	condBlock(b2, 1, 30, ir.EQ, e2, def)
	retBlock(e0, 100)
	retBlock(e1, 101)
	retBlock(e2, 102)
	retBlock(def, 999)
	return p, f
}

// trainAndReorder detects, profiles with the given inputs, and reorders.
func trainAndReorder(t *testing.T, p *ir.Program, train []byte) (seq *Sequence, res Result) {
	t.Helper()
	seqs := Detect(p, 0)
	if len(seqs) != 1 {
		t.Fatalf("detected %d sequences", len(seqs))
	}
	seq = seqs[0]
	seq.BuildArms()
	prof := NewProfile(seqs)
	p.Linearize()
	m := &interp.Machine{Prog: p, Input: train, OnProf: prof.Hook()}
	if _, err := m.Run(); err != nil {
		t.Fatalf("training run: %v", err)
	}
	res = ReorderWith(seq, prof.Seqs[seq.ID], TransformOptions{})
	StripProf(p)
	p.Linearize()
	if err := p.Verify(); err != nil {
		t.Fatalf("verify after reorder: %v\n%s", err, p.Dump())
	}
	return seq, res
}

func runByte(t *testing.T, p *ir.Program, c byte) int64 {
	t.Helper()
	m := &interp.Machine{Prog: p, Input: []byte{c}}
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, p.Dump())
	}
	return ret
}

func TestReorderSkipsUnexecutedSequence(t *testing.T) {
	// The sequence sits behind a guard on a different variable, so an
	// input that fails the guard never reaches it — the paper's most
	// common reason for leaving a sequence alone.
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 4}
	p.Funcs = append(p.Funcs, f)
	guard := f.NewBlock()
	out := f.NewBlock()
	head := f.NewBlock()
	b1 := f.NewBlock()
	e0 := f.NewBlock()
	e1 := f.NewBlock()
	def := f.NewBlock()
	guard.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 2}}
	condBlock(guard, 2, 42, ir.NE, out, head)
	retBlock(out, 0)
	head.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 1}}
	condBlock(head, 1, 10, ir.EQ, e0, b1)
	condBlock(b1, 1, 20, ir.EQ, e1, def)
	retBlock(e0, 100)
	retBlock(e1, 101)
	retBlock(def, 999)

	seqs := Detect(p, 0)
	var seq *Sequence
	for _, s := range seqs {
		if s.V == 1 {
			seq = s
		}
	}
	if seq == nil {
		t.Fatalf("sequence on r1 not detected (%d seqs)", len(seqs))
	}
	for _, s := range seqs {
		s.BuildArms()
	}
	prof := NewProfile(seqs)
	p.Linearize()
	m := &interp.Machine{Prog: p, Input: nil, OnProf: prof.Hook()}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	res := ReorderWith(seq, prof.Seqs[seq.ID], TransformOptions{})
	if res.Applied || res.Reason != ReasonNotExecuted {
		t.Errorf("result = %+v, want skip for unexecuted sequence", res)
	}
}

func TestReorderSkipsWhenOriginalOptimal(t *testing.T) {
	p, _ := buildEqProgram()
	// Training heavily favours the first condition: nothing to gain.
	train := make([]byte, 300)
	for i := range train {
		train[i] = 10
	}
	_, res := trainAndReorder(t, p, train)
	if res.Applied {
		t.Errorf("reordered an already-optimal sequence: %+v", res)
	}
	if res.Reason != ReasonNoImprovement {
		t.Errorf("reason = %v, want no-improvement", res.Reason)
	}
	if res.Reason.String() == "" || ReasonApplied.String() == "" || ReasonNotExecuted.String() == "" {
		t.Error("SkipReason strings missing")
	}
}

func TestReorderAppliesAndPreservesBehaviour(t *testing.T) {
	p, _ := buildEqProgram()
	ref := ir.CloneProgram(p)
	ref.Linearize()
	// Training heavily favours the LAST condition (30).
	train := make([]byte, 0, 330)
	for i := 0; i < 300; i++ {
		train = append(train, 30)
	}
	train = append(train, 10, 20, 5)
	_, res := trainAndReorder(t, p, train)
	if !res.Applied {
		t.Fatalf("not reordered: %+v", res)
	}
	if res.NewCost >= res.OrigCost {
		t.Errorf("cost did not improve: %v -> %v", res.OrigCost, res.NewCost)
	}
	if res.OrigBranches != 3 {
		t.Errorf("OrigBranches = %d", res.OrigBranches)
	}
	if res.NewBranches == 0 {
		t.Error("NewBranches not recorded")
	}
	// Behaviour identical on all interesting inputs.
	for _, c := range []byte{10, 20, 30, 5, 0, 255} {
		want := runByte(t, ref, c)
		got := runByte(t, p, c)
		if got != want {
			t.Errorf("input %d: got %d, want %d", c, got, want)
		}
	}
	// The hot value should now cost fewer dynamic branches.
	m := &interp.Machine{Prog: p, Input: []byte{30}}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.CondBranches > 2 { // EOF loop? no loop here: just the chain
		t.Errorf("hot value executes %d branches, want <= 2", m.Stats.CondBranches)
	}
}

func TestReorderSinksSideEffects(t *testing.T) {
	// if v==10 ret g; else { g++; if v==20 ret g+50; else ret g+900 }
	p := &ir.Program{MemSize: 1}
	p.Globals = []*ir.Global{{Name: "g", Addr: 0, Size: 1, Init: []int64{5}}}
	f := &ir.Func{Name: "main", NRegs: 4}
	p.Funcs = append(p.Funcs, f)
	head := f.NewBlock()
	b1 := f.NewBlock()
	e0 := f.NewBlock()
	e1 := f.NewBlock()
	def := f.NewBlock()
	head.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 1}}
	condBlock(head, 1, 10, ir.EQ, e0, b1)
	// side effect: g++ before the second compare
	b1.Insts = []ir.Inst{
		{Op: ir.Ld, Dst: 2, A: ir.Imm(0)},
		{Op: ir.Add, Dst: 2, A: ir.R(2), B: ir.Imm(1)},
		{Op: ir.St, A: ir.Imm(0), B: ir.R(2)},
	}
	condBlock(b1, 1, 20, ir.EQ, e1, def)
	// e0: ret g
	e0.Insts = []ir.Inst{{Op: ir.Ld, Dst: 3, A: ir.Imm(0)}}
	e0.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(3)}
	// e1: ret g+50
	e1.Insts = []ir.Inst{
		{Op: ir.Ld, Dst: 3, A: ir.Imm(0)},
		{Op: ir.Add, Dst: 3, A: ir.R(3), B: ir.Imm(50)},
	}
	e1.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(3)}
	// def: ret g+900
	def.Insts = []ir.Inst{
		{Op: ir.Ld, Dst: 3, A: ir.Imm(0)},
		{Op: ir.Add, Dst: 3, A: ir.R(3), B: ir.Imm(900)},
	}
	def.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(3)}

	ref := ir.CloneProgram(p)
	ref.Linearize()

	// Train mostly on the default path so the gap arm leads.
	train := make([]byte, 0, 120)
	for i := 0; i < 100; i++ {
		train = append(train, 77)
	}
	train = append(train, 20, 20, 20, 20, 20, 10)
	seq, res := trainAndReorder(t, p, train)
	if len(seq.Conds[1].SideEffects) != 3 {
		t.Fatalf("side effects not captured: %d", len(seq.Conds[1].SideEffects))
	}
	if !res.Applied {
		t.Fatalf("not applied: %+v", res)
	}
	// v==10: no increment (ret 5); v==20: increment (ret 56);
	// other: increment (ret 906).
	for _, tc := range []struct {
		c    byte
		want int64
	}{{10, 5}, {20, 56}, {77, 906}, {0, 906}} {
		if got := runByte(t, p, tc.c); got != tc.want {
			t.Errorf("input %d: got %d, want %d (reference %d)",
				tc.c, got, tc.want, runByte(t, ref, tc.c))
		}
	}
}

func TestReorderPicksNewDefaultTarget(t *testing.T) {
	p, _ := buildEqProgram()
	// Everything hits 30: its arm should be omitted (fall-through) or
	// tested first; either way 30 must remain correct and cheap.
	train := make([]byte, 500)
	for i := range train {
		train[i] = 30
	}
	_, res := trainAndReorder(t, p, train)
	if !res.Applied {
		t.Fatalf("not applied: %+v", res)
	}
	for _, tc := range []struct {
		c    byte
		want int64
	}{{10, 100}, {20, 101}, {30, 102}, {42, 999}} {
		if got := runByte(t, p, tc.c); got != tc.want {
			t.Errorf("input %d: got %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestStripProf(t *testing.T) {
	p, _ := buildEqProgram()
	Detect(p, 0)
	found := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if b.Insts[i].Op == ir.Prof {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no instrumentation inserted")
	}
	StripProf(p)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if b.Insts[i].Op == ir.Prof {
					t.Fatal("Prof survived StripProf")
				}
			}
		}
	}
}

func TestProfileBucketing(t *testing.T) {
	p, _ := buildEqProgram()
	seqs := Detect(p, 0)
	seq := seqs[0]
	seq.BuildArms()
	prof := NewProfile(seqs)
	hook := prof.Hook()
	// 3 hits on [10], 1 on [20], 2 in the gap below 10, 4 above 30.
	for _, v := range []int64{10, 10, 10, 20, -5, 3, 40, 50, 60, 70} {
		hook(seq.ID, 0, v)
	}
	sp := prof.Seqs[seq.ID]
	if sp.Total != 10 {
		t.Fatalf("total = %d", sp.Total)
	}
	// Arms: [10],[20],[30], then gaps [MIN..9],[11..19],[21..29],[31..MAX].
	want := map[Range]uint64{
		{10, 10}:        3,
		{20, 20}:        1,
		{30, 30}:        0,
		{ir.MinVal, 9}:  2,
		{11, 19}:        0,
		{21, 29}:        0,
		{31, ir.MaxVal}: 4,
	}
	for i, arm := range seq.Arms {
		if w, ok := want[arm.R]; ok {
			if sp.Counts[i] != w {
				t.Errorf("arm %v count = %d, want %d", arm.R, sp.Counts[i], w)
			}
		} else {
			t.Errorf("unexpected arm %v", arm.R)
		}
	}
	// AttachProfile normalizes.
	seq.AttachProfile(sp)
	var sum float64
	for _, a := range seq.Arms {
		sum += a.P
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Unknown sequence IDs are ignored, not panicking.
	hook(9999, 0, 5)
}
