package workload

import (
	"bytes"
	"sync"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

func execute(t *testing.T, name string, p *ir.Program, input []byte) (string, interp.Stats) {
	t.Helper()
	m := &interp.Machine{Prog: p, Input: input}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return m.Output.String(), m.Stats
}

func TestAllWorkloadsCount(t *testing.T) {
	ws := All()
	if len(ws) != 17 {
		t.Fatalf("got %d workloads, want 17 (paper Table 3)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if len(w.Train()) == 0 || len(w.Test()) == 0 {
			t.Errorf("%s: empty input", w.Name)
		}
		if string(w.Train()) == string(w.Test()) {
			t.Errorf("%s: train and test inputs identical; the paper used distinct data sets", w.Name)
		}
	}
	if _, ok := Named("sort"); !ok {
		t.Error("Named(sort) failed")
	}
	if _, ok := Named("nonesuch"); ok {
		t.Error("Named(nonesuch) succeeded")
	}
}

// Every workload must compile, run, and behave identically before and
// after reordering, under every heuristic set.
func TestWorkloadsSemanticsPreserved(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			train := w.Train()
			test := w.Test()
			for _, h := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
				r, err := pipeline.Build(w.Source, train, pipeline.Options{Switch: h, Optimize: true})
				if err != nil {
					t.Fatalf("set %v: %v", h, err)
				}
				out0, s0 := execute(t, w.Name, r.Baseline, test)
				out1, s1 := execute(t, w.Name, r.Reordered, test)
				if out0 != out1 {
					t.Fatalf("set %v: output changed (%d vs %d bytes)", h, len(out0), len(out1))
				}
				if s0.Insts == 0 {
					t.Fatalf("set %v: workload executed no instructions", h)
				}
				t.Logf("set %v: insts %d -> %d (%+.2f%%), branches %d -> %d, seqs %d/%d reordered",
					h, s0.Insts, s1.Insts,
					100*(float64(s1.Insts)/float64(s0.Insts)-1),
					s0.CondBranches, s1.CondBranches,
					r.ReorderedSeqs(), r.TotalSeqs())
			}
		})
	}
}

// The headline result: across the suite, reordering must reduce total
// instructions and branches under every heuristic set, with Set III
// (always linear search) benefiting the most, as in Table 4.
func TestSuiteWideImprovement(t *testing.T) {
	reduction := map[lower.HeuristicSet]float64{}
	for _, h := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
		var base, reord uint64
		for _, w := range All() {
			r, err := pipeline.Build(w.Source, w.Train(), pipeline.Options{Switch: h, Optimize: true})
			if err != nil {
				t.Fatalf("%s set %v: %v", w.Name, h, err)
			}
			_, s0 := execute(t, w.Name, r.Baseline, w.Test())
			_, s1 := execute(t, w.Name, r.Reordered, w.Test())
			base += s0.Insts
			reord += s1.Insts
		}
		red := 1 - float64(reord)/float64(base)
		reduction[h] = red
		t.Logf("set %v: %.2f%% fewer instructions suite-wide", h, 100*red)
		if red <= 0 {
			t.Errorf("set %v: reordering did not reduce suite-wide instructions", h)
		}
	}
	if reduction[lower.SetIII] <= reduction[lower.SetI] {
		t.Errorf("Set III reduction (%.3f) should exceed Set I (%.3f), as in Table 4",
			reduction[lower.SetIII], reduction[lower.SetI])
	}
}

// Each input is generated once per All call: every caller of a returned
// workload, 8 at once included, gets the same array, capped at its length
// so an append cannot write into it, and another All call generates the
// same bytes.
func TestInputsMemoized(t *testing.T) {
	ws, again := All(), All()
	const callers = 8
	for i, w := range ws {
		for _, in := range []struct {
			name      string
			gen, want func() []byte
		}{
			{"train", w.Train, again[i].Train},
			{"test", w.Test, again[i].Test},
		} {
			var got [callers][]byte
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = in.gen()
				}()
			}
			wg.Wait()
			want := in.want()
			for g, b := range got {
				if cap(b) != len(b) || &b[0] != &got[0][0] || !bytes.Equal(b, want) {
					t.Errorf("%s %s: caller %d got other bytes (len %d, cap %d)", w.Name, in.name, g, len(b), cap(b))
				}
			}
		}
	}
}
