package sim

import (
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
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
