package ir_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/ir"
	"branchreorder/internal/randprog"
)

// cfgFuncs returns functions to check the ID-indexed analyses on: those
// of generated programs (linearized, so with deleted blocks and
// trampolines), with unreachable blocks added to some, and copies whose
// IDs were respaced by hand, leaving gaps the allocator never saw.
func cfgFuncs(seeds int) []*ir.Func {
	var fs []*ir.Func
	for seed := 0; seed < seeds; seed++ {
		for i, f := range randprog.New(uint64(seed)).Funcs {
			if (seed+i)%3 == 0 {
				dead := f.NewBlock()
				dead.Term = ir.Term{Kind: ir.TermGoto, Taken: f.Blocks[seed%len(f.Blocks)]}
			}
			fs = append(fs, f)
			g := ir.CloneFunc(f)
			for _, b := range g.Blocks {
				b.ID = 3*b.ID + 1
			}
			fs = append(fs, g)
		}
	}
	return fs
}

// naivePreds and naiveReach recompute the analyses over block pointers.
func naivePreds(f *ir.Func) map[*ir.Block][]*ir.Block {
	preds := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs(nil) {
			if !slices.Contains(preds[s], b) {
				preds[s] = append(preds[s], b)
			}
		}
	}
	return preds
}

func naiveReach(f *ir.Func) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Term.Succs(nil) {
			visit(s)
		}
	}
	visit(f.Entry())
	return seen
}

// naiveNeedFlags is the least fixpoint of NeedFlags' equations.
func naiveNeedFlags(f *ir.Func) map[*ir.Block]bool {
	need := map[*ir.Block]bool{}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			v := b.Term.Kind == ir.TermBr
			for _, s := range b.Term.Succs(nil) {
				v = v || need[s]
			}
			for _, in := range b.Insts {
				v = v && in.Op != ir.Cmp
			}
			if v && !need[b] {
				need[b] = true
				changed = true
			}
		}
	}
	return need
}

func TestCFGAnalysesMatchNaive(t *testing.T) {
	var buf ir.PredBuf // refilled by functions of every size in turn
	for i, f := range cfgFuncs(300) {
		preds, reach, need := new(ir.PredBuf).Preds(f), ir.Reachable(f), ir.NeedFlags(f)
		if len(preds) != ir.IDBound(f) || len(reach) != len(preds) || len(need) != len(preds) {
			t.Fatalf("func %d: lengths %d, %d, %d, want IDBound %d", i, len(preds), len(reach), len(need), ir.IDBound(f))
		}
		if reused := buf.Preds(f); !slices.EqualFunc(reused, preds, func(a, b []*ir.Block) bool { return slices.Equal(a, b) }) {
			t.Fatalf("func %d: a reused PredBuf's lists differ from a fresh one's", i)
		}
		wantPreds, wantReach, wantNeed := naivePreds(f), naiveReach(f), naiveNeedFlags(f)
		members := 0
		for _, b := range f.Blocks {
			if got := preds[b.ID]; !slices.Equal(got, wantPreds[b]) {
				t.Fatalf("func %d: preds of B%d = %v, want %v", i, b.ID, ids(got), ids(wantPreds[b]))
			}
			members += len(preds[b.ID])
			if reach[b.ID] != wantReach[b] {
				t.Fatalf("func %d: Reachable(B%d) = %v, want %v", i, b.ID, reach[b.ID], wantReach[b])
			}
			if need[b.ID] != wantNeed[b] {
				t.Fatalf("func %d: NeedFlags(B%d) = %v, want %v", i, b.ID, need[b.ID], wantNeed[b])
			}
		}
		// IDs no block holds stay empty.
		total := 0
		for _, p := range preds {
			total += len(p)
		}
		if total != members {
			t.Fatalf("func %d: %d predecessor entries, %d on member IDs", i, total, members)
		}
	}
}

// naiveFlagsError is the greatest fixpoint of the condition-code
// equations Verify checks, solved over predecessor lists: flags are
// available at a block's exit if it has a Cmp or they are available on
// entry, and on entry if it is not the entry block and they are available
// at the exit of every reachable predecessor.
func naiveFlagsError(f *ir.Func) string {
	preds, reach := naivePreds(f), naiveReach(f)
	out := map[*ir.Block]bool{}
	for _, b := range f.Blocks {
		out[b] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !reach[b] {
				continue
			}
			v := b != f.Entry()
			for _, p := range preds[b] {
				v = v && (!reach[p] || out[p])
			}
			for _, in := range b.Insts {
				v = v || in.Op == ir.Cmp
			}
			if v != out[b] {
				out[b] = v
				changed = true
			}
		}
	}
	for _, b := range f.Blocks {
		if reach[b] && b.Term.Kind == ir.TermBr && !out[b] {
			return fmt.Sprintf("B%d: conditional branch with undefined condition codes", b.ID)
		}
	}
	return ""
}

// verifyFlags walks the flagless blocks instead of solving the dataflow;
// it must reject exactly where the dataflow does, naming the same block.
func TestVerifyFlagsMatchesDataflow(t *testing.T) {
	rejected, fs := 0, cfgFuncs(300)
	for i, f := range fs {
		got := ""
		if err := ir.VerifyFlags(f); err != nil {
			got = err.Error()
			rejected++
		}
		if want := naiveFlagsError(f); got != want {
			t.Fatalf("func %d: verifyFlags says %q, the dataflow %q", i, got, want)
		}
	}
	t.Logf("%d of %d functions rejected", rejected, len(fs))
	if rejected == 0 {
		t.Fatal("no generated function has undefined condition codes")
	}
}

func ids(bs []*ir.Block) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.ID
	}
	return out
}

// A block created after an analysis ran has no predecessors, is not
// reachable and needs no flags, as detection's split heads and the
// linearizer's trampolines need.
func TestCFGAnalysesOfLaterBlocks(t *testing.T) {
	for i, f := range cfgFuncs(100) {
		f.SyncNextID()
		preds, reach, need := new(ir.PredBuf).Preds(f), ir.Reachable(f), ir.NeedFlags(f)
		nb := f.NewBlock()
		nb.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.Imm(0), B: ir.Imm(0)}}
		nb.Term = ir.Term{Kind: ir.TermBr, Taken: f.Entry(), Next: f.Entry()}
		if ir.At(preds, nb) != nil || ir.At(reach, nb) || ir.At(need, nb) {
			t.Fatalf("func %d: new block B%d reads preds %v, reachable %v, needs flags %v",
				i, nb.ID, ids(ir.At(preds, nb)), ir.At(reach, nb), ir.At(need, nb))
		}
	}

	// B2's successors both precede it in layout, so Linearize gives it a
	// trampoline.
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	p.Funcs = []*ir.Func{f}
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)}}
	b0.Term = ir.Term{Kind: ir.TermGoto, Taken: b1}
	b1.Term = ir.Term{Kind: ir.TermGoto, Taken: b2}
	b2.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: b0, Next: b1}
	preds, need := new(ir.PredBuf).Preds(f), ir.NeedFlags(f)
	p.Linearize()
	if len(f.Blocks) != 4 {
		t.Fatalf("Linearize left %d blocks, want 4 with a trampoline", len(f.Blocks))
	}
	tramp := b2.Term.Next
	if tramp.ID < len(preds) || ir.At(preds, tramp) != nil || ir.At(need, tramp) {
		t.Errorf("trampoline B%d reads preds %v, needs flags %v", tramp.ID, ids(ir.At(preds, tramp)), ir.At(need, tramp))
	}
	if !need[b1.ID] || !slices.Equal(preds[b1.ID], []*ir.Block{b0, b2}) {
		t.Errorf("B1: needs flags %v, preds %v", need[b1.ID], ids(preds[b1.ID]))
	}
}

// Verify reports what a slice indexed by ID cannot hold, or would
// confuse, as an error.
func TestVerifyBlockIDs(t *testing.T) {
	mk := func(mutate func(f *ir.Func, b0, b1 *ir.Block)) error {
		p := &ir.Program{}
		f := &ir.Func{Name: "main", NRegs: 1}
		p.Funcs = []*ir.Func{f}
		b0, b1 := f.NewBlock(), f.NewBlock()
		b0.Term = ir.Term{Kind: ir.TermGoto, Taken: b1}
		b1.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
		mutate(f, b0, b1)
		return p.Verify()
	}
	if err := mk(func(f *ir.Func, b0, b1 *ir.Block) {}); err != nil {
		t.Fatalf("baseline program invalid: %v", err)
	}
	// IDs set by hand, with gaps and no SyncNextID, verify.
	if err := mk(func(f *ir.Func, b0, b1 *ir.Block) { b0.ID, b1.ID = 9, 4 }); err != nil {
		t.Errorf("sparse IDs rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		mutate     func(f *ir.Func, b0, b1 *ir.Block)
	}{
		{"negative ID", "negative block ID -3", func(f *ir.Func, b0, b1 *ir.Block) { b1.ID = -3 }},
		{"duplicate ID", "duplicate block ID 0", func(f *ir.Func, b0, b1 *ir.Block) { b1.ID = 0 }},
		{"foreign block with a member's ID", "goto target not in function", func(f *ir.Func, b0, b1 *ir.Block) {
			b0.Term.Taken = &ir.Block{ID: b1.ID, Term: b1.Term}
		}},
		{"foreign block past every ID", "goto target not in function", func(f *ir.Func, b0, b1 *ir.Block) {
			b0.Term.Taken = &ir.Block{ID: 1 << 20, Term: b1.Term}
		}},
		{"foreign branch target", "branch successor not in function", func(f *ir.Func, b0, b1 *ir.Block) {
			b0.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(0)}}
			b0.Term = ir.Term{Kind: ir.TermBr, Taken: b1, Next: &ir.Block{ID: -1}}
		}},
		{"foreign jump-table target", "indirect jump target not in function", func(f *ir.Func, b0, b1 *ir.Block) {
			b0.Term = ir.Term{Kind: ir.TermIJmp, Index: ir.Imm(0), Targets: []*ir.Block{b1, {ID: b0.ID}}}
		}},
	} {
		err := mk(c.mutate)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
