package equiv

import (
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// referenceMeasure replicates the pre-rewrite measurement loop exactly:
// the block-walking interpreter with every executed branch fanned out to
// the 14 Table-6 Bimodal predictors. The same run's OnBranches chunks,
// replayed through a predictor.Bank, must give the fan-out's counts.
type measurement struct {
	stats       interp.Stats
	output      string
	ret         int64
	mispredicts map[string]uint64
}

func referenceMeasure(t *testing.T, prog *ir.Program, input []byte) *measurement {
	t.Helper()
	preds := sim.PredictorSweep()
	var branches uint64
	bank := predictor.NewTable6Bank()
	m := &interp.Machine{
		Prog:  prog,
		Input: input,
		OnBranch: func(id int, taken bool) {
			branches++
			for _, p := range preds {
				p.Observe(id, taken)
			}
		},
		OnBranches: bank.Replay,
	}
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if bank.Branches != branches {
		t.Errorf("reference run: chunks carried %d events, OnBranch saw %d", bank.Branches, branches)
	}
	for i, p := range preds {
		if bank.MispredictsOf(i) != p.Mispredicts {
			t.Errorf("reference run: %s: replayed chunks give %d mispredicts, OnBranch %d",
				p.Name(), bank.MispredictsOf(i), p.Mispredicts)
		}
	}
	out := &measurement{
		stats:       m.Stats,
		output:      m.Output.String(),
		ret:         ret,
		mispredicts: make(map[string]uint64, len(preds)),
	}
	for _, p := range preds {
		out.mispredicts[p.Name()] = p.Mispredicts
	}
	return out
}

func checkMeasurement(t *testing.T, label string, prog *ir.Program, input []byte) {
	t.Helper()
	want := referenceMeasure(t, prog, input)
	got, err := sim.Run(prog, input, nil)
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", label, err)
	}
	if got.Ret != want.ret {
		t.Errorf("%s: ret closure=%d ref=%d", label, got.Ret, want.ret)
	}
	if got.Output != want.output {
		t.Errorf("%s: output diverged (%d vs %d bytes)", label, len(got.Output), len(want.output))
	}
	if got.Stats != want.stats {
		t.Errorf("%s: stats\nclosure: %+v\nref:     %+v", label, got.Stats, want.stats)
	}
	if len(got.Mispredicts) != len(want.mispredicts) {
		t.Fatalf("%s: %d predictor configs, want %d", label, len(got.Mispredicts), len(want.mispredicts))
	}
	for name, w := range want.mispredicts {
		if got.Mispredicts[name] != w {
			t.Errorf("%s: %s mispredicts closure=%d ref=%d", label, name, got.Mispredicts[name], w)
		}
	}

	// sim.Run always installs a branch hook, so the run above logs every
	// branch; a hook-free run takes the closures' log-off path. On
	// either decode it must reproduce the measured run, and compile
	// every function of the program.
	for _, fuse := range []bool{true, false} {
		tag := label + "/closure-plain"
		if !fuse {
			tag += "-nofuse"
		}
		code, err := interp.DecodeWith(prog, interp.DecodeOptions{Fuse: fuse})
		if err != nil {
			t.Fatalf("%s: decode: %v", tag, err)
		}
		ret, stats, output, err := interp.Exec(interp.EngineClosure, prog, code, input, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if ret != want.ret || string(output) != want.output {
			t.Errorf("%s: result diverged from the reference engine", tag)
		}
		if stats != want.stats {
			t.Errorf("%s: stats\nclosure: %+v\nref:     %+v", tag, stats, want.stats)
		}
		if st := code.CompileStats(); st.CompiledFuncs != len(prog.Funcs) {
			t.Errorf("%s: closure compiler did not engage: compiled %d of %d funcs", tag, st.CompiledFuncs, len(prog.Funcs))
		}
	}
}

// TestWorkloadSuiteEquivalence measures every workload's baseline and
// reordered executables through sim.Run on the closure engine
// (predictor bank replaying the branch-log batches) and through a
// replica of the old Machine+Bimodal loop fed per event, demanding
// identical Stats, Output, Ret and per-predictor Mispredicts.
func TestWorkloadSuiteEquivalence(t *testing.T) {
	all := workload.All()
	if testing.Short() {
		all = all[:4]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opts := pipeline.Options{Switch: lower.SetII, Optimize: true}
			front, err := pipeline.Frontend(w.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			build, err := pipeline.Build(w.Source, w.Train(), opts)
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]byte{
				"test": w.Test(),
				"fuzz": workload.FuzzInput(uint64(len(w.Name))*77+13, 3000),
			}
			for tag, input := range inputs {
				checkMeasurement(t, w.Name+"/base/"+tag, front.Prog, input)
				checkMeasurement(t, w.Name+"/reord/"+tag, build.Reordered, input)
			}
		})
	}
}

// TestBankAgainstBimodalsOnRealStreams replays a real workload's branch
// stream into the vectorized bank and the individual predictors.
func TestBankAgainstBimodalsOnRealStreams(t *testing.T) {
	w, ok := workload.Named("grep")
	if !ok {
		t.Fatal("grep workload missing")
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	code, err := interp.Decode(front.Prog)
	if err != nil {
		t.Fatal(err)
	}
	bank := predictor.NewTable6Bank()
	preds := sim.PredictorSweep()
	m := &interp.ClosureMachine{Code: code, Input: w.Test(),
		OnBranch: func(id int, taken bool) {
			bank.Observe(id, taken)
			for _, p := range preds {
				p.Observe(id, taken)
			}
		}}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if bank.MispredictsOf(i) != p.Mispredicts {
			t.Errorf("%s: bank %d mispredicts, bimodal %d",
				p.Name(), bank.MispredictsOf(i), p.Mispredicts)
		}
	}
	if bank.Branches == 0 {
		t.Error("no branches observed")
	}
}
