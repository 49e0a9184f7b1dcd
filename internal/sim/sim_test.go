package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/workload"
)

const loopSrc = `
int main() {
	int c, n = 0;
	while ((c = getchar()) != EOF) {
		if (c == 'x')
			n = n + 1;
	}
	return n;
}`

func compile(t *testing.T) *pipeline.Options {
	t.Helper()
	return &pipeline.Options{Switch: lower.SetI, Optimize: true}
}

func TestRunCollectsEverything(t *testing.T) {
	front, err := pipeline.Frontend(loopSrc, *compile(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(front.Prog, []byte("xxyyxx"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ret != 4 {
		t.Errorf("ret = %d, want 4", m.Ret)
	}
	if len(m.Mispredicts) != 14 {
		t.Errorf("got %d predictor configs, want 14", len(m.Mispredicts))
	}
	for _, cfg := range machine.All() {
		if m.Cycles[cfg.Name] == 0 {
			t.Errorf("no cycles for %s", cfg.Name)
		}
		if m.Cycles[cfg.Name] < m.Stats.Insts {
			t.Errorf("%s: cycles %d < insts %d", cfg.Name, m.Cycles[cfg.Name], m.Stats.Insts)
		}
	}
}

func TestPredictorSweepShape(t *testing.T) {
	preds := PredictorSweep()
	if len(preds) != 14 {
		t.Fatalf("sweep has %d predictors, want 14", len(preds))
	}
	seen := map[string]bool{}
	for _, p := range preds {
		if seen[p.Name()] {
			t.Errorf("duplicate predictor %s", p.Name())
		}
		seen[p.Name()] = true
	}
	if !seen["(0,2)x2048"] || !seen["(0,1)x32"] {
		t.Error("sweep missing expected endpoints")
	}
}

func TestCyclesModel(t *testing.T) {
	st := interp.Stats{Insts: 1000, TakenBranches: 100, IndirectJumps: 10}
	mispreds := map[string]uint64{"(0,2)x2048": 20}

	ipc := Cycles(machine.SPARCIPC, st, mispreds)
	// 1000 + 100 taken * 1 + 10 ijmp * 2 = 1120.
	if ipc != 1120 {
		t.Errorf("IPC cycles = %d, want 1120", ipc)
	}
	ultra := Cycles(machine.UltraI, st, mispreds)
	// 1000 + 20 mispred * 4 + 10 ijmp * 8 = 1160.
	if ultra != 1160 {
		t.Errorf("Ultra cycles = %d, want 1160", ultra)
	}
	ss20 := Cycles(machine.SPARC20, st, mispreds)
	// 1000 + 100 * 2 + 10 * 2 = 1220.
	if ss20 != 1220 {
		t.Errorf("SS20 cycles = %d, want 1220", ss20)
	}
}

func TestMachineConfigsMatchPaperPairing(t *testing.T) {
	if machine.SPARCIPC.Switch != lower.SetI || machine.SPARC20.Switch != lower.SetI {
		t.Error("IPC/SS20 must use Heuristic Set I")
	}
	if machine.UltraI.Switch != lower.SetII {
		t.Error("Ultra must use Heuristic Set II")
	}
	if machine.UltraI.IJmpExtra <= machine.SPARCIPC.IJmpExtra*3 {
		t.Error("Ultra indirect jumps should be ~4x the IPC's")
	}
	if !machine.SPARCIPC.StaticPipeline || machine.UltraI.StaticPipeline {
		t.Error("pipeline kinds wrong")
	}
	if len(machine.All()) != 3 {
		t.Error("expected the paper's three machines")
	}
}

func TestRunWithCustomPredictors(t *testing.T) {
	front, err := pipeline.Frontend(loopSrc, *compile(t))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xyxyyyxxy")
	m, err := Run(front.Prog, input, []predictor.Spec{{Bits: 2, Entries: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	ref := predictor.NewBimodal(2, 2048)
	rm := &interp.Machine{Prog: front.Prog, Input: input,
		OnBranch: func(id int, taken bool) { ref.Observe(id, taken) }}
	if _, err := rm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Mispredicts) != 1 {
		t.Errorf("got %d configs, want 1", len(m.Mispredicts))
	}
	if got, ok := m.Mispredicts[ref.Name()]; !ok || got != ref.Mispredicts {
		t.Errorf("%s: run reports %d mispredicts (present %v), bimodal %d",
			ref.Name(), got, ok, ref.Mispredicts)
	}
	if ref.Branches != m.Stats.CondBranches {
		t.Errorf("predictor saw %d branches, stats say %d",
			ref.Branches, m.Stats.CondBranches)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	front, err := pipeline.Frontend(`int main() { int z = 0; return 1 / z; }`, *compile(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(front.Prog, nil, nil); err == nil {
		t.Error("trap not propagated")
	}
}

// TestDefaultEngineIsClosure checks which machine each Options runs:
// the zero value must dispatch to the closure engine.
func TestDefaultEngineIsClosure(t *testing.T) {
	front, err := pipeline.Frontend(loopSrc, *compile(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts Options
		clos bool
	}{
		{Options{}, true},
		{Options{Engine: interp.EngineClosure}, true},
		{Options{Engine: interp.EngineReference}, false},
	} {
		r := runners.New().(*runner)
		if _, err := r.measure(front.Prog, []byte("xyx"), nil, c.opts); err != nil {
			t.Fatal(err)
		}
		if clos := r.clos.Stats.Insts > 0; clos != c.clos {
			t.Errorf("%+v ran closure=%v, want %v", c.opts, clos, c.clos)
		}
	}
}

// countSrc takes about 3 branch events per iteration (loop test, the if,
// and the check of z), so 20000 iterations fill several replay batches.
const countSrc = `
int main() {
	int i = 0, n = 0, z = 0;
	while (i < 20000) {
		if (i % 3 == 0)
			n = n + 1;
		i = i + 1;
	}
	return n / z;
}`

// settledGoroutines returns the goroutine count once it has stopped
// falling for 10 ms, waiting at most about a second: a goroutine that an
// earlier test joined leaves the count just after it signals, and must
// not be counted as one the run should leave behind.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i, still := 0, 0; i < 1000 && still < 10; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			still = 0
		} else {
			still++
		}
		n = m
	}
	return n
}

// waitGoroutines waits, boundedly, for the goroutine count to fall back
// to want, and fails if it stays above: the run left a goroutine behind.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines after the run, %d before", got, want)
	}
}

// TestReplayJoinsOnEveryPath runs measurements that end before one batch
// fills and that trap in the middle of a batch, by division by zero and
// by the step limit. Each must return its error text and leave no replay
// goroutine behind.
func TestReplayJoinsOnEveryPath(t *testing.T) {
	build := func(src string) *ir.Program {
		t.Helper()
		front, err := pipeline.Frontend(src, *compile(t))
		if err != nil {
			t.Fatal(err)
		}
		return front.Prog
	}
	short := build(loopSrc)
	trap := build(countSrc)
	endless := build(`int main() { int i = 0; while (1) { if (i < 5) i = i + 1; else i = 0; } return i; }`)
	for _, c := range []struct {
		name     string
		prog     *ir.Program
		input    string
		maxSteps uint64
		err      string
	}{
		{"short", short, "xyx", 0, ""},
		{"div-by-zero", trap, "", 0, "sim: runtime error in main: division by zero"},
		{"step-limit", endless, "", 100000, "sim: runtime error in main: exceeded step limit 100000"},
	} {
		for _, opts := range []Options{{}, {Engine: interp.EngineReference}} {
			if c.maxSteps != 0 && opts.Engine == interp.EngineReference {
				continue // the reference Machine is built per run
			}
			before := settledGoroutines()
			r := runners.New().(*runner)
			r.clos.MaxSteps = c.maxSteps
			m, err := r.measure(c.prog, []byte(c.input), nil, opts)
			if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
				t.Errorf("%s %v: error %q, want %q", c.name, opts.Engine, got, c.err)
			}
			if c.err == "" && (m == nil || m.Ret != 2) {
				t.Errorf("%s %v: measurement %+v", c.name, opts.Engine, m)
			}
			waitGoroutines(t, before)
		}
	}
}

// TestConcurrentRunsMatchSerial runs the roster's executables from 8
// goroutines at once, each through the pooled machines, banks and
// batches, and requires the Measurements serial calls give.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	all := workload.All()
	progs := make([]*ir.Program, len(all))
	want := make([]*Measurement, len(all))
	for i, w := range all {
		front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetII, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = front.Prog
		if want[i], err = Run(progs[i], all[i].Test(), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range all {
				i := (g + k) % len(all)
				got, err := Run(progs[i], all[i].Test(), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s measured differently from the serial run", g, all[i].Name)
				}
			}
		}(g)
	}
	wg.Wait()
}
