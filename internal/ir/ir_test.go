package ir

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildFunc assembles a function from a terse description for tests.
func ret(v Operand) Term  { return Term{Kind: TermRet, Val: v} }
func goto_(b *Block) Term { return Term{Kind: TermGoto, Taken: b} }
func br(rel Rel, taken, next *Block) Term {
	return Term{Kind: TermBr, Rel: rel, Taken: taken, Next: next}
}

func cmp(a, b Operand) Inst { return Inst{Op: Cmp, A: a, B: b} }
func mov(d Reg, a Operand) Inst {
	return Inst{Op: Mov, Dst: d, A: a}
}

func TestRelHolds(t *testing.T) {
	cases := []struct {
		rel  Rel
		a, b int64
		want bool
	}{
		{EQ, 3, 3, true}, {EQ, 3, 4, false},
		{NE, 3, 4, true}, {NE, 3, 3, false},
		{LT, 2, 3, true}, {LT, 3, 3, false},
		{LE, 3, 3, true}, {LE, 4, 3, false},
		{GT, 4, 3, true}, {GT, 3, 3, false},
		{GE, 3, 3, true}, {GE, 2, 3, false},
	}
	for _, c := range cases {
		if got := c.rel.Holds(c.a, c.b); got != c.want {
			t.Errorf("%v.Holds(%d,%d) = %v", c.rel, c.a, c.b, got)
		}
	}
}

func TestRelNegateProperty(t *testing.T) {
	f := func(a, b int64, r uint8) bool {
		rel := Rel(int(r) % 6)
		return rel.Holds(a, b) == !rel.Negate().Holds(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredsAndReachable(t *testing.T) {
	f := &Func{Name: "t", NRegs: 1}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	dead := f.NewBlock()
	b0.Insts = []Inst{cmp(R(0), Imm(0))}
	b0.Term = br(EQ, b1, b2)
	b1.Term = goto_(b2)
	b2.Term = ret(Imm(0))
	dead.Term = goto_(b0)

	preds := new(PredBuf).Preds(f)
	if len(preds[b2.ID]) != 2 {
		t.Errorf("b2 has %d preds, want 2", len(preds[b2.ID]))
	}
	if len(preds[b0.ID]) != 1 { // from dead only
		t.Errorf("b0 has %d preds, want 1", len(preds[b0.ID]))
	}
	reach := Reachable(f)
	if reach[dead.ID] {
		t.Error("dead block marked reachable")
	}
	if !reach[b2.ID] {
		t.Error("b2 not reachable")
	}
	if !RemoveUnreachable(f) {
		t.Error("RemoveUnreachable found nothing")
	}
	if len(f.Blocks) != 3 {
		t.Errorf("have %d blocks after removal, want 3", len(f.Blocks))
	}
}

func TestLinearizeAdjacency(t *testing.T) {
	// A diamond whose branch cannot have both successors adjacent.
	p := &Program{}
	f := &Func{Name: "main", NRegs: 2}
	p.Funcs = append(p.Funcs, f)
	b0 := f.NewBlock()
	left := f.NewBlock()
	right := f.NewBlock()
	join := f.NewBlock()
	b0.Insts = []Inst{cmp(R(0), Imm(5))}
	b0.Term = br(LT, left, right)
	left.Insts = []Inst{mov(1, Imm(1))}
	left.Term = goto_(join)
	right.Insts = []Inst{mov(1, Imm(2))}
	right.Term = goto_(join)
	join.Term = ret(R(1))

	p.Linearize()
	checkLinearized(t, f)
}

func checkLinearized(t *testing.T, f *Func) {
	t.Helper()
	for i, b := range f.Blocks {
		if b.LayoutIndex != i {
			t.Errorf("block %d has LayoutIndex %d", i, b.LayoutIndex)
		}
		if b.Term.Kind == TermBr {
			if b.Term.Next.LayoutIndex != b.LayoutIndex+1 {
				t.Errorf("B%d: fall-through is not adjacent after linearize", b.ID)
			}
		}
	}
	// Branch IDs unique.
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		if b.Term.Kind == TermBr {
			if seen[b.Term.BranchID] {
				t.Errorf("duplicate branch ID %d", b.Term.BranchID)
			}
			seen[b.Term.BranchID] = true
		}
	}
}

// Random CFGs must all satisfy the linearizer's invariants.
func TestLinearizeRandomCFGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := &Program{}
		f := &Func{Name: "main", NRegs: 2}
		p.Funcs = append(p.Funcs, f)
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			f.NewBlock()
		}
		for _, b := range f.Blocks {
			switch rng.Intn(3) {
			case 0:
				b.Term = ret(Imm(0))
			case 1:
				b.Term = goto_(f.Blocks[rng.Intn(n)])
			default:
				b.Insts = []Inst{cmp(R(0), Imm(int64(rng.Intn(5))))}
				b.Term = br(Rel(rng.Intn(6)), f.Blocks[rng.Intn(n)], f.Blocks[rng.Intn(n)])
			}
		}
		p.Linearize()
		checkLinearized(t, f)
		if err := p.Verify(); err != nil {
			// Flags may legitimately be undefined on some random CFGs;
			// only structural errors count here.
			if !strings.Contains(err.Error(), "condition codes") {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestVerifyCatchesBadPrograms(t *testing.T) {
	mk := func(mutate func(p *Program, f *Func, b *Block)) error {
		p := &Program{}
		f := &Func{Name: "main", NRegs: 2}
		p.Funcs = append(p.Funcs, f)
		b := f.NewBlock()
		b.Insts = []Inst{mov(0, Imm(1))}
		b.Term = ret(R(0))
		mutate(p, f, b)
		return p.Verify()
	}
	if err := mk(func(p *Program, f *Func, b *Block) {}); err != nil {
		t.Fatalf("baseline program invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p *Program, f *Func, b *Block)
	}{
		{"reg out of range", func(p *Program, f *Func, b *Block) {
			b.Insts[0].Dst = 99
		}},
		{"negative reg", func(p *Program, f *Func, b *Block) {
			b.Insts[0].A = R(-2)
		}},
		{"edge outside function", func(p *Program, f *Func, b *Block) {
			other := &Block{ID: 77, Term: ret(Imm(0))}
			b.Term = goto_(other)
		}},
		{"unknown callee", func(p *Program, f *Func, b *Block) {
			b.Insts = append(b.Insts, Inst{Op: Call, Dst: NoReg, Callee: "nope"})
		}},
		{"bad arity", func(p *Program, f *Func, b *Block) {
			g := &Func{Name: "g", NParams: 2, NRegs: 2}
			gb := g.NewBlock()
			gb.Term = ret(Imm(0))
			p.Funcs = append(p.Funcs, g)
			b.Insts = append(b.Insts, Inst{Op: Call, Dst: NoReg, Callee: "g", Args: []Operand{Imm(1)}})
		}},
		{"branch without flags", func(p *Program, f *Func, b *Block) {
			b2 := f.NewBlock()
			b2.Term = ret(Imm(0))
			b.Term = br(EQ, b2, b2)
		}},
		{"empty ijmp", func(p *Program, f *Func, b *Block) {
			b.Term = Term{Kind: TermIJmp, Index: R(0)}
		}},
		{"duplicate func", func(p *Program, f *Func, b *Block) {
			p.Funcs = append(p.Funcs, &Func{Name: "main", NRegs: 1,
				Blocks: []*Block{{Term: ret(Imm(0))}}})
		}},
		{"overlapping globals", func(p *Program, f *Func, b *Block) {
			p.Globals = []*Global{
				{Name: "a", Addr: 0, Size: 4},
				{Name: "b", Addr: 2, Size: 4},
			}
			p.MemSize = 8
		}},
		{"global beyond memsize", func(p *Program, f *Func, b *Block) {
			p.Globals = []*Global{{Name: "a", Addr: 0, Size: 4}}
			p.MemSize = 2
		}},
		{"init longer than global", func(p *Program, f *Func, b *Block) {
			p.Globals = []*Global{{Name: "a", Addr: 0, Size: 1, Init: []int64{1, 2}}}
			p.MemSize = 4
		}},
	}
	for _, c := range cases {
		if err := mk(c.mutate); err == nil {
			t.Errorf("%s: Verify accepted a bad program", c.name)
		}
	}
}

func TestVerifyFlagsAcrossBlocks(t *testing.T) {
	// Flags set in a predecessor satisfy a branch in the successor.
	p := &Program{}
	f := &Func{Name: "main", NRegs: 1}
	p.Funcs = append(p.Funcs, f)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []Inst{cmp(R(0), Imm(3))}
	b0.Term = br(EQ, b2, b1)
	b1.Term = br(LT, b2, b2) // reuses b0's flags
	b2.Term = ret(Imm(0))
	if err := p.Verify(); err != nil {
		t.Errorf("cross-block flag use rejected: %v", err)
	}
}

func TestCloneProgramIndependence(t *testing.T) {
	p := &Program{MemSize: 4}
	p.Globals = append(p.Globals, &Global{Name: "g", Size: 4, Init: append(make([]int64, 0, 4), 1, 2)})
	f := &Func{Name: "main", NRegs: 2}
	p.Funcs = append(p.Funcs, f)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []Inst{cmp(R(0), Imm(1))}
	b0.Term = br(EQ, b1, b1)
	b1.Term = ret(Imm(0))

	c := CloneProgram(p)
	// Mutating the clone must not touch the original.
	cf := c.Func("main")
	cf.Blocks[0].Insts[0].B = Imm(99)
	cf.Blocks[0].Term.Rel = NE
	// The clone's Init is its own array: not even its spare capacity,
	// which an append would fill, is the original's.
	init := c.Globals[0].Init
	init = init[:cap(init)]
	for i := range init {
		init[i] = 42
	}
	if p.Funcs[0].Blocks[0].Insts[0].B.Imm != 1 {
		t.Error("clone shares instruction storage")
	}
	if p.Funcs[0].Blocks[0].Term.Rel != EQ {
		t.Error("clone shares terminator")
	}
	if orig := p.Globals[0].Init; !slices.Equal(orig[:cap(orig)], []int64{1, 2, 0, 0}) {
		t.Errorf("clone shares global init: the original's array reads %v", orig[:cap(orig)])
	}
	// Clone's edges must point at clone blocks.
	if cf.Blocks[0].Term.Taken == p.Funcs[0].Blocks[1] {
		t.Error("clone edge points into the original")
	}
}

func TestDumpContainsStructure(t *testing.T) {
	f := &Func{Name: "main", NRegs: 2}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []Inst{
		mov(0, Imm(7)),
		{Op: Add, Dst: 1, A: R(0), B: Imm(1)},
		cmp(R(1), Imm(8)),
	}
	b0.Term = br(EQ, b1, b1)
	b1.Term = ret(R(1))
	text := f.Dump()
	for _, want := range []string{"func main", "B0:", "r0 = mov 7", "r1 = add r0, 1", "cmp r1, 8", "beq B1", "ret r1"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

func TestNewRegAndNewBlockIDs(t *testing.T) {
	f := &Func{Name: "x", NRegs: 3}
	if r := f.NewReg(); r != 3 {
		t.Errorf("NewReg = %d, want 3", r)
	}
	f.NewBlock()
	f.NewBlock()
	f.Blocks = f.Blocks[:1] // drop B1
	// A deleted block's ID is never reused: analyses index by ID, and a
	// stale entry must not describe a new block.
	if nb := f.NewBlock(); nb.ID != 2 {
		t.Errorf("NewBlock after deleting B1 = B%d, want B2", nb.ID)
	}
}
