package bench

import (
	"strings"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// miniSuite builds a reduced suite (3 workloads × 3 sets) so table
// rendering is exercised quickly; the full suite runs in the repository
// benchmarks and cmd/brbench.
func miniSuite(t *testing.T) *Suite {
	t.Helper()
	s := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for _, set := range Sets() {
		for _, name := range []string{"wc", "sort", "lex"} {
			w, ok := workload.Named(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			r, err := RunOpts(w, BaseOptions(set))
			if err != nil {
				t.Fatalf("RunOpts(%s, %v): %v", name, set, err)
			}
			s.Runs[set] = append(s.Runs[set], r)
		}
	}
	return s
}

func TestPctChange(t *testing.T) {
	approx := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if got := PctChange(100, 90); !approx(got, -10) {
		t.Errorf("PctChange(100,90) = %v, want -10", got)
	}
	if got := PctChange(100, 103); !approx(got, 3) {
		t.Errorf("PctChange(100,103) = %v, want 3", got)
	}
	if got := PctChange(0, 5); got != 0 {
		t.Errorf("PctChange(0,5) = %v, want 0", got)
	}
}

func TestRunChecksOutputs(t *testing.T) {
	w, _ := workload.Named("wc")
	r, err := RunOpts(w, BaseOptions(lower.SetI))
	if err != nil {
		t.Fatal(err)
	}
	if r.Base.Stats.Insts == 0 || r.Reord.Stats.Insts == 0 {
		t.Error("zero instruction counts")
	}
	if r.StaticBase <= 0 || r.StaticReord <= 0 {
		t.Error("nonpositive static counts")
	}
	if r.StaticReord < r.StaticBase {
		t.Errorf("reordering shrank static code (%d -> %d); it should replicate",
			r.StaticBase, r.StaticReord)
	}
	if len(r.Base.Mispredicts) != 14 { // (0,1),(0,2) × 32..2048
		t.Errorf("predictor battery has %d configs, want 14", len(r.Base.Mispredicts))
	}
}

func TestTablesRender(t *testing.T) {
	s := miniSuite(t)
	for name, text := range map[string]string{
		"Table2": Table2(),
		"Table3": Table3(),
		"Table4": s.Table4(),
		"Table5": s.Table5(),
		"Table6": s.Table6(),
		"Table7": s.Table7(),
		"Table8": s.Table8(),
	} {
		if len(text) == 0 {
			t.Errorf("%s rendered empty", name)
		}
		if !strings.Contains(text, "Table") {
			t.Errorf("%s missing caption: %q", name, text[:40])
		}
	}
	if !strings.Contains(s.Table4(), "average") {
		t.Error("Table4 missing averages")
	}
	if !strings.Contains(s.Table5(), "(0,2)") {
		t.Error("Table5 missing predictor description")
	}
	for _, n := range []int{11, 12, 13} {
		fig, err := s.Figure(n)
		if err != nil {
			t.Fatalf("Figure(%d): %v", n, err)
		}
		if !strings.Contains(fig, "Sequence Length") {
			t.Errorf("Figure %d missing caption", n)
		}
	}
	if _, err := s.Figure(9); err == nil {
		t.Error("Figure(9) should fail")
	}
}

// A reordered build that executes more instructions and mispredicts
// more saves a negative number of instructions per extra misprediction:
// (100-110)/(12-10) = -5.
func TestInstRatioNegative(t *testing.T) {
	w, _ := workload.Named("wc")
	measure := func(insts, mispreds uint64) *sim.Measurement {
		return &sim.Measurement{Stats: interp.Stats{Insts: insts}, Mispredicts: map[string]uint64{machine.UltraI.PredictorName: mispreds}}
	}
	s := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{
		lower.SetII: {{Workload: w, Set: lower.SetII, Base: measure(100, 10), Reord: measure(110, 12)}},
	}}
	for name, text := range map[string]string{"Table5": s.Table5(), "Table6": s.Table6()} {
		if !strings.Contains(text, "-5.00") {
			t.Errorf("%s lacks the ratio -5.00:\n%s", name, text)
		}
	}
}

func TestTable4ShowsReductions(t *testing.T) {
	s := miniSuite(t)
	tbl := s.Table4()
	if !strings.Contains(tbl, "-") {
		t.Errorf("Table 4 shows no reductions:\n%s", tbl)
	}
	t.Logf("\n%s", tbl)
}
