package bench

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

func subset(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	var ws []workload.Workload
	for _, n := range names {
		w, ok := workload.Named(n)
		if !ok {
			t.Fatalf("workload %s missing", n)
		}
		ws = append(ws, w)
	}
	return ws
}

// renderAll is the deterministic fingerprint of a suite: every derived
// table and figure concatenated.
func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(s.Table4())
	sb.WriteString(s.Table5())
	sb.WriteString(s.Table6())
	sb.WriteString(s.Table7())
	sb.WriteString(s.Table8())
	for _, n := range []int{11, 12, 13} {
		fig, err := s.Figure(n)
		if err != nil {
			t.Fatalf("Figure(%d): %v", n, err)
		}
		sb.WriteString(fig)
	}
	return sb.String()
}

// The worker pool must not leak completion order into rendered output:
// a wide engine and a serial one must produce byte-identical tables.
// Which job of a content group measures and which ones share is up to
// scheduling too; the shared and training-run counts are not.
func TestSuiteDeterministicAcrossJobs(t *testing.T) {
	ws := subset(t, "wc", "sort", "lex", "yacc")
	ctx := context.Background()
	se, pe := NewEngine(1, nil), NewEngine(8, nil)
	serial, err := se.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := pe.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderAll(t, parallel), renderAll(t, serial)
	if got != want {
		t.Errorf("-j 8 output differs from -j 1 output:\n--- j=8 ---\n%s\n--- j=1 ---\n%s", got, want)
	}
	// wc and sort share 2 jobs each, lex and yacc 1 each.
	for _, st := range []EngineStats{se.Stats(), pe.Stats()} {
		if st.Shared != 6 || st.TrainRuns != 6 {
			t.Errorf("stats: %d shared, %d training runs; want 6, 6", st.Shared, st.TrainRuns)
		}
	}
}

// A repeated request is served by the content memo: a second suite on
// the same engine shares every job with the first and runs no stage
// again but the frontend lookups.
func TestEngineMemoizes(t *testing.T) {
	ws := subset(t, "wc", "sort")
	e := NewEngine(4, nil)
	ctx := context.Background()
	s1, err := e.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(Sets()) * len(ws)
	// wc and sort each lower identically under all three sets.
	st := e.Stats()
	if st.Builds != jobs || st.Shared != 4 || st.TrainRuns != 2 || st.BaselineRuns != 2 {
		t.Errorf("first suite: %d builds, %d shared, %d training runs, %d baseline runs; want %d, 4, 2, 2",
			st.Builds, st.Shared, st.TrainRuns, st.BaselineRuns, jobs)
	}
	s2, err := e.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.Shared != st.Shared+jobs {
		t.Errorf("second suite: %d shared, want %d", st2.Shared, st.Shared+jobs)
	}
	if st2.FrontendRuns != st.FrontendRuns || st2.TrainRuns != st.TrainRuns || st2.BaselineRuns != st.BaselineRuns {
		t.Errorf("second suite ran stages again: before %+v, after %+v", st, st2)
	}
	if !reflect.DeepEqual(Records(s1.AllRuns()), Records(s2.AllRuns())) {
		t.Error("second suite's records differ from the first's")
	}

	// The ablation's full variant is the suite's Set III job, so it is
	// shared; the Transform variants reuse its training run and only
	// "+common-succ" trains.
	rows, err := RunAblationWith(ctx, e, lower.SetIII, ws[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Insts["full"] == 0 {
		t.Fatalf("bad ablation rows: %+v", rows)
	}
	st3 := e.Stats()
	if st3.Shared != st2.Shared+1 || st3.TrainRuns != st2.TrainRuns+1 || st3.BaselineRuns != st2.BaselineRuns {
		t.Errorf("ablation after suite: %d shared, %d training runs, %d baseline runs; want %d, %d, %d",
			st3.Shared, st3.TrainRuns, st3.BaselineRuns, st2.Shared+1, st2.TrainRuns+1, st2.BaselineRuns)
	}
}

// A failing build must surface its own error — not a cancellation — and
// stop the remaining work.
func TestSuiteFirstErrorPropagation(t *testing.T) {
	bad := workload.Workload{
		Name:   "bad",
		Desc:   "unparseable",
		Source: "int main( {",
		Train:  func() []byte { return nil },
		Test:   func() []byte { return nil },
	}
	ws := append(subset(t, "wc"), bad)
	_, err := NewEngine(4, nil).SuiteOf(context.Background(), ws)
	if err == nil {
		t.Fatal("suite with unparseable workload succeeded")
	}
	if !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "parse") {
		t.Errorf("error does not identify the failing build: %v", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Errorf("cancellation masked the real error: %v", err)
	}
}

func TestSuiteHonoursContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(2, nil)
	ws := subset(t, "wc")
	if _, err := e.SuiteOf(ctx, ws); err == nil {
		t.Fatal("canceled suite succeeded")
	}
	// Cancellations must not poison the cache: the same engine with a
	// live context rebuilds and succeeds.
	if _, err := e.SuiteOf(context.Background(), ws); err != nil {
		t.Fatalf("engine poisoned by earlier cancellation: %v", err)
	}
	if st := e.Stats(); st.Builds != len(Sets())*len(ws) {
		t.Errorf("after retry: %d builds, want %d", st.Builds, len(Sets())*len(ws))
	}
}
