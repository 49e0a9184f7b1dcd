package ir_test

import (
	"testing"

	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

// Digest must see every field CloneProgram copies: one mutation at a
// time on a fresh clone of a roster program, each must move the digest,
// while an unmutated clone keeps it. yacc under Set I has everything to
// mutate: zero-initialized arrays, calls with arguments, conditional
// branches and an indirect jump.
func TestDigestCoversClonedFields(t *testing.T) {
	w, ok := workload.Named("yacc")
	if !ok {
		t.Fatal("yacc missing from the roster")
	}
	front, err := pipeline.BuildFrontend(w.Source, pipeline.FrontendOptions{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := front.Prog.Digest()
	if front.Digest != want {
		t.Fatal("FrontendProduct.Digest differs from Prog.Digest()")
	}
	if got := ir.CloneProgram(front.Prog).Digest(); got != want {
		t.Fatal("an unmutated clone changed the digest")
	}

	// Each mutation reports whether it found a site to change.
	mutations := []struct {
		name string
		mut  func(p *ir.Program) bool
	}{
		// yacc's initializers are all zero, so its Inits are empty: the
		// mutation sets the last word of a global's zero tail, which the
		// engines load, so the digest must see it.
		{"global word past Init", func(p *ir.Program) bool {
			for _, g := range p.Globals {
				if g.Size-int64(len(g.Init)) >= 2 {
					img := make([]int64, g.Size)
					copy(img, g.Init)
					img[g.Size-1] = 1
					g.Init = img
					return true
				}
			}
			return false
		}},
		{"MemSize", func(p *ir.Program) bool { p.MemSize++; return true }},
		{"Term.Slot", forTerm(func(tm *ir.Term) bool { tm.Slot = (tm.Slot + 1) % 4; return true })},
		{"Term.BranchID", forTerm(func(tm *ir.Term) bool {
			if tm.Kind != ir.TermBr {
				return false
			}
			tm.BranchID++
			return true
		})},
		{"Term.Targets", forTerm(func(tm *ir.Term) bool {
			if tm.Kind != ir.TermIJmp || len(tm.Targets) < 2 || tm.Targets[0] == tm.Targets[1] {
				return false
			}
			tm.Targets[0], tm.Targets[1] = tm.Targets[1], tm.Targets[0]
			return true
		})},
		{"Block.LayoutIndex", func(p *ir.Program) bool { p.Funcs[0].Blocks[0].LayoutIndex += 7; return true }},
		{"Inst.Sub", forInst(func(in *ir.Inst) bool { in.Sub++; return true })},
		{"Inst.SeqID", forInst(func(in *ir.Inst) bool { in.SeqID++; return true })},
		{"Inst.Rel", forInst(func(in *ir.Inst) bool { in.Rel = in.Rel.Negate(); return true })},
		{"call Args entry", forInst(func(in *ir.Inst) bool {
			if in.Op != ir.Call || len(in.Args) == 0 {
				return false
			}
			a := &in.Args[len(in.Args)-1]
			if a.IsImm {
				a.Imm++
			} else {
				a.Reg++
			}
			return true
		})},
		{"Func block-ID allocator", func(p *ir.Program) bool {
			f := p.Funcs[0]
			ir.SetNextBlockID(f, ir.NextBlockID(f)+1)
			return true
		}},
		{"Program branch-ID allocator", func(p *ir.Program) bool {
			ir.SetNextBranchID(p, p.NextBranchID()+1)
			return true
		}},
	}
	for _, m := range mutations {
		clone := ir.CloneProgram(front.Prog)
		if !m.mut(clone) {
			t.Errorf("%s: no site to mutate in yacc", m.name)
			continue
		}
		if clone.Digest() == want {
			t.Errorf("%s: mutation left the digest unchanged", m.name)
		}
	}
	if front.Prog.Digest() != want {
		t.Fatal("mutating clones changed the original's digest")
	}
}

// forTerm applies mut to terminators in order until it reports a change.
func forTerm(mut func(*ir.Term) bool) func(*ir.Program) bool {
	return func(p *ir.Program) bool {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if mut(&b.Term) {
					return true
				}
			}
		}
		return false
	}
}

// forInst applies mut to instructions in order until it reports a change.
func forInst(mut func(*ir.Inst) bool) func(*ir.Program) bool {
	return func(p *ir.Program) bool {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Insts {
					if mut(&b.Insts[i]) {
						return true
					}
				}
			}
		}
		return false
	}
}

// sdiff has the roster's largest initializers (25,600 words), so it is
// the slowest program to digest.
func BenchmarkDigest(b *testing.B) {
	w, _ := workload.Named("sdiff")
	front, err := pipeline.BuildFrontend(w.Source, pipeline.FrontendOptions{Switch: lower.SetII, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		front.Prog.Digest()
	}
}
