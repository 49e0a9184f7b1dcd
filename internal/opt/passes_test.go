package opt

import (
	"fmt"
	"testing"

	"branchreorder/internal/ir"
	"branchreorder/internal/randprog"
)

// IR-level unit tests for individual passes (the end-to-end behaviour is
// covered by opt_test.go through the pipeline).

func TestDominators(t *testing.T) {
	f := &ir.Func{Name: "t", NRegs: 1}
	entry := f.NewBlock()
	left := f.NewBlock()
	right := f.NewBlock()
	join := f.NewBlock()
	tail := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)}}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: left, Next: right}
	left.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	right.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	join.Term = ir.Term{Kind: ir.TermGoto, Taken: tail}
	tail.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}

	dom := computeDominators(f, new(ir.PredBuf).Preds(f))
	check := func(a, b *ir.Block, want bool) {
		t.Helper()
		got := dom.dom.at(b.ID).get(ir.Reg(a.ID))
		if got != want {
			t.Errorf("dominates(B%d, B%d) = %v, want %v", a.ID, b.ID, got, want)
		}
	}
	check(entry, join, true)
	check(entry, tail, true)
	check(left, join, false) // join reachable via right too
	check(join, tail, true)
	check(left, left, true)

	// Instruction-level ordering within a block.
	if !dom.dominates(entry, 0, entry, 1) {
		t.Error("earlier instruction should dominate later one in same block")
	}
	if dom.dominates(entry, 1, entry, 1) {
		t.Error("a point must not strictly dominate itself")
	}
}

// TestDominatorsMatchDefinition checks computeDominators against the
// definition on generated CFGs: for a reachable block b, d dominates b
// exactly when removing d leaves b unreachable from the entry. Some
// functions get an unreachable block with an edge into the live ones, and
// every function is checked again with its IDs respaced by hand, so the
// ID-indexed sets have gaps the allocator never saw.
func TestDominatorsMatchDefinition(t *testing.T) {
	reachWithout := func(f *ir.Func, skip *ir.Block) map[*ir.Block]bool {
		seen := map[*ir.Block]bool{}
		stack := []*ir.Block{f.Entry()}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if b == skip || seen[b] {
				continue
			}
			seen[b] = true
			stack = b.Term.Succs(stack)
		}
		return seen
	}
	check := func(label string, f *ir.Func) {
		dom := computeDominators(f, new(ir.PredBuf).Preds(f))
		reach := reachWithout(f, nil)
		for _, b := range f.Blocks {
			if !reach[b] {
				continue
			}
			for _, d := range f.Blocks {
				want := !reachWithout(f, d)[b]
				if got := dom.dom.at(b.ID).get(ir.Reg(d.ID)); got != want {
					t.Fatalf("%s: B%d dominates B%d = %v, want %v", label, d.ID, b.ID, got, want)
				}
			}
		}
	}
	for seed := 0; seed < 300; seed++ {
		for i, f := range randprog.New(uint64(seed)).Funcs {
			if (seed+i)%3 == 0 {
				dead := f.NewBlock()
				dead.Term = ir.Term{Kind: ir.TermGoto, Taken: f.Blocks[seed%len(f.Blocks)]}
			}
			check(fmt.Sprintf("seed %d", seed), f)
			for _, b := range f.Blocks {
				b.ID = 3*b.ID + 1
			}
			check(fmt.Sprintf("seed %d, respaced", seed), f)
		}
	}
}

func TestGlobalPropagateAcrossBlocks(t *testing.T) {
	// r1 = getchar (single def); r2 = mov r1 (single def); a later block
	// compares r2 — after propagation it must compare r1.
	f := &ir.Func{Name: "main", NRegs: 3}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []ir.Inst{
		{Op: ir.GetChar, Dst: 1},
		{Op: ir.Mov, Dst: 2, A: ir.R(1)},
		{Op: ir.Cmp, A: ir.R(1), B: ir.Imm(5)},
	}
	b0.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: b2, Next: b1}
	b1.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(2), B: ir.Imm(7)}}
	b1.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: b2, Next: b2}
	b2.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(2)}

	if !GlobalPropagate(f, new(ir.PredBuf)) {
		t.Fatal("GlobalPropagate found nothing")
	}
	if got := b1.Insts[0].A; got.IsImm || got.Reg != 1 {
		t.Errorf("cross-block compare still uses %v, want r1", got)
	}
	if got := b2.Term.Val; got.IsImm || got.Reg != 1 {
		t.Errorf("return still uses %v, want r1", got)
	}
}

func TestGlobalPropagateRespectsDominance(t *testing.T) {
	// r1 = mov 5 happens only on one path; the use at the join must NOT
	// be rewritten to the constant.
	f := &ir.Func{Name: "main", NRegs: 3}
	entry := f.NewBlock()
	set := f.NewBlock()
	join := f.NewBlock()
	entry.Insts = []ir.Inst{
		{Op: ir.GetChar, Dst: 0},
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)},
	}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: set, Next: join}
	set.Insts = []ir.Inst{{Op: ir.Mov, Dst: 1, A: ir.Imm(5)}}
	set.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	join.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}

	GlobalPropagate(f, new(ir.PredBuf))
	if join.Term.Val.IsImm {
		t.Error("value from a non-dominating definition was propagated")
	}
}

func TestGlobalPropagateMultiDefStops(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 2}
	b := f.NewBlock()
	b.Insts = []ir.Inst{
		{Op: ir.Mov, Dst: 1, A: ir.Imm(5)},
		{Op: ir.Mov, Dst: 1, A: ir.Imm(6)}, // second def
		{Op: ir.PutInt, A: ir.R(1)},
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}
	GlobalPropagate(f, new(ir.PredBuf))
	if b.Insts[2].A.IsImm {
		t.Error("multi-def register was const-propagated globally")
	}
}

func TestSimplifyControlChainsAndMerges(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 1}
	a := f.NewBlock()
	hop := f.NewBlock() // empty goto trampoline
	c := f.NewBlock()
	a.Insts = []ir.Inst{{Op: ir.Mov, Dst: 0, A: ir.Imm(1)}}
	a.Term = ir.Term{Kind: ir.TermGoto, Taken: hop}
	hop.Term = ir.Term{Kind: ir.TermGoto, Taken: c}
	c.Insts = []ir.Inst{{Op: ir.PutInt, A: ir.R(0)}}
	c.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}

	if !SimplifyControl(f, new(ir.PredBuf)) {
		t.Fatal("SimplifyControl found nothing")
	}
	// a, hop and c should have collapsed into one block.
	if len(f.Blocks) != 1 {
		t.Errorf("got %d blocks after simplify, want 1\n%s", len(f.Blocks), f.Dump())
	}
}

func TestSimplifyControlFoldsConstBranch(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 1}
	a := f.NewBlock()
	yes := f.NewBlock()
	no := f.NewBlock()
	a.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.Imm(3), B: ir.Imm(3)}}
	a.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: yes, Next: no}
	yes.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(1)}
	no.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}

	SimplifyControl(f, new(ir.PredBuf))
	if a.Term.Kind != ir.TermGoto && a.Term.Kind != ir.TermRet {
		t.Errorf("constant branch not folded: %v", a.Term.Kind)
	}
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermRet && b.Term.Val.Imm == 0 && b == no {
			t.Error("untaken side survived unreachable-code removal")
		}
	}
}

func TestDeadCmpsRemoved(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 2}
	b := f.NewBlock()
	b.Insts = []ir.Inst{
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(1)}, // shadowed
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}, // never consumed
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	if !DeadCodeElim(f) {
		t.Fatal("DeadCodeElim found nothing")
	}
	for i := range b.Insts {
		if b.Insts[i].Op == ir.Cmp {
			t.Errorf("dead compare survived:\n%s", f.Dump())
		}
	}
}

func TestLiveCmpKept(t *testing.T) {
	// The flags flow across a goto into a branch: the Cmp must stay.
	f := &ir.Func{Name: "main", NRegs: 1}
	a := f.NewBlock()
	mid := f.NewBlock()
	out := f.NewBlock()
	a.Insts = []ir.Inst{
		{Op: ir.Mov, Dst: 0, A: ir.Imm(3)},
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(1)},
	}
	a.Term = ir.Term{Kind: ir.TermGoto, Taken: mid}
	mid.Term = ir.Term{Kind: ir.TermBr, Rel: ir.GT, Taken: out, Next: out}
	out.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
	deadCmps(f)
	found := false
	for i := range a.Insts {
		if a.Insts[i].Op == ir.Cmp {
			found = true
		}
	}
	if !found {
		t.Errorf("live compare removed:\n%s", f.Dump())
	}
}

func TestRedundantCmpAcrossDiamondRejected(t *testing.T) {
	// Two predecessors with different compare constants: the successor's
	// compare must survive.
	f := &ir.Func{Name: "main", NRegs: 2}
	entry := f.NewBlock()
	l := f.NewBlock()
	r := f.NewBlock()
	join := f.NewBlock()
	done := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(1)}}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: l, Next: r}
	l.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}}
	l.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	r.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(3)}}
	r.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	join.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}}
	join.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: done, Next: done}
	done.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}

	RedundantCmpElim(f, new(ir.PredBuf))
	if len(join.Insts) == 0 || join.Insts[0].Op != ir.Cmp {
		t.Error("compare with conflicting incoming flags was removed")
	}
}

func TestRedundantCmpAcrossAgreementRemoved(t *testing.T) {
	// Both predecessors end with identical compares: the successor's
	// identical compare is redundant.
	f := &ir.Func{Name: "main", NRegs: 2}
	entry := f.NewBlock()
	l := f.NewBlock()
	r := f.NewBlock()
	join := f.NewBlock()
	done := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(1)}}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: l, Next: r}
	l.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}}
	l.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	r.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}}
	r.Term = ir.Term{Kind: ir.TermGoto, Taken: join}
	join.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)}}
	join.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: done, Next: done}
	done.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}

	if !RedundantCmpElim(f, new(ir.PredBuf)) {
		t.Fatal("RedundantCmpElim found nothing")
	}
	for i := range join.Insts {
		if join.Insts[i].Op == ir.Cmp {
			t.Error("redundant compare with agreeing incoming flags survived")
		}
	}
}

func TestRedundantCmpInvalidatedByDef(t *testing.T) {
	// The compared register is redefined between the compares.
	f := &ir.Func{Name: "main", NRegs: 2}
	b := f.NewBlock()
	done := f.NewBlock()
	b.Insts = []ir.Inst{
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)},
		{Op: ir.Add, Dst: 0, A: ir.R(0), B: ir.Imm(1)},
		{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(2)},
	}
	b.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: done, Next: done}
	done.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	RedundantCmpElim(f, new(ir.PredBuf))
	n := 0
	for i := range b.Insts {
		if b.Insts[i].Op == ir.Cmp {
			n++
		}
	}
	if n != 2 {
		t.Errorf("have %d compares, want 2 (redefinition invalidates flags)", n)
	}
}

func TestPropagateLocalConstFold(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 4}
	b := f.NewBlock()
	b.Insts = []ir.Inst{
		{Op: ir.Mov, Dst: 0, A: ir.Imm(6)},
		{Op: ir.Mov, Dst: 1, A: ir.Imm(7)},
		{Op: ir.Mul, Dst: 2, A: ir.R(0), B: ir.R(1)},
		{Op: ir.Add, Dst: 3, A: ir.R(2), B: ir.Imm(0)}, // identity
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(3)}
	Propagate(f)
	// After propagation+folding, the Mul should be a Mov 42.
	foundConst := false
	for i := range b.Insts {
		if b.Insts[i].Op == ir.Mov && b.Insts[i].Dst == 2 && b.Insts[i].A.IsImm && b.Insts[i].A.Imm == 42 {
			foundConst = true
		}
	}
	if !foundConst {
		t.Errorf("6*7 not folded:\n%s", f.Dump())
	}
}

func TestPropagateDoesNotFoldDivByZero(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 1}
	b := f.NewBlock()
	b.Insts = []ir.Inst{{Op: ir.Div, Dst: 0, A: ir.Imm(5), B: ir.Imm(0)}}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
	Propagate(f)
	if b.Insts[0].Op != ir.Div {
		t.Error("division by zero folded away; it must keep trapping")
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	f := &ir.Func{Name: "main", NRegs: 3}
	b := f.NewBlock()
	b.Insts = []ir.Inst{
		{Op: ir.GetChar, Dst: 0},                // result dead but consumes input
		{Op: ir.Mov, Dst: 1, A: ir.Imm(1)},      // dead
		{Op: ir.St, A: ir.Imm(0), B: ir.Imm(2)}, // store must stay
		{Op: ir.PutChar, A: ir.Imm(65)},         // output must stay
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	DeadCodeElim(f)
	ops := map[ir.Op]bool{}
	for i := range b.Insts {
		ops[b.Insts[i].Op] = true
	}
	if !ops[ir.GetChar] || !ops[ir.St] || !ops[ir.PutChar] {
		t.Errorf("side-effecting instruction removed:\n%s", f.Dump())
	}
	if ops[ir.Mov] {
		t.Error("dead mov survived")
	}
}
