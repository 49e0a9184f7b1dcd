package bench

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

// The ablation grid is the staged pipeline's reason to exist: five
// variants of one workload must share one frontend and two training runs
// (the four CommonSuccessor=false variants share one, "+common-succ"
// needs its own).
func TestAblationGridSharesStages(t *testing.T) {
	e := NewEngine(4, nil)
	rows, err := RunAblationWith(context.Background(), e, lower.SetIII, subset(t, "wc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	st := e.Stats()
	nvar := len(AblationVariants(lower.SetIII))
	if st.Builds != nvar {
		t.Errorf("builds: %d, want %d", st.Builds, nvar)
	}
	if st.FrontendRuns != 1 || st.FrontendHits != nvar-1 {
		t.Errorf("frontend: %d runs (%d reused), want 1 (%d)", st.FrontendRuns, st.FrontendHits, nvar-1)
	}
	if st.TrainRuns != 2 || st.TrainHits != nvar-2 {
		t.Errorf("training: %d runs (%d reused), want 2 (%d)", st.TrainRuns, st.TrainHits, nvar-2)
	}
}

// stageCounts is the part of EngineStats the stage memos count.
type stageCounts struct {
	Builds, Shared             int
	FrontendRuns, FrontendHits int
	TrainRuns, TrainHits       int
	BaselineRuns, BaselineHits int
}

func countsOf(st EngineStats) stageCounts {
	return stageCounts{st.Builds, st.Shared, st.FrontendRuns, st.FrontendHits,
		st.TrainRuns, st.TrainHits, st.BaselineRuns, st.BaselineHits}
}

// Stage reuse must be exact: a Transform change reruns only finalize and
// the reordered measurement, a new training input or detection option
// trains again, a program that lowers differently runs every stage but
// the check, and one that lowers the same under another set runs none.
func TestStageMemoInvalidation(t *testing.T) {
	ws := subset(t, "wc", "lex")
	wc, lex := ws[0], ws[1]
	e := NewEngine(1, nil)
	step := func(name string, w workload.Workload, o pipeline.Options, want stageCounts) {
		t.Helper()
		if _, err := e.Get(context.Background(), w, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := countsOf(e.Stats()); got != want {
			t.Fatalf("%s: got %+v, want %+v", name, got, want)
		}
	}
	base := BaseOptions(lower.SetI)
	step("cold", wc, base, stageCounts{Builds: 1, FrontendRuns: 1, TrainRuns: 1, BaselineRuns: 1})

	vary := base
	vary.Transform = core.TransformOptions{NoTailDup: true}
	step("Transform variant", wc, vary, stageCounts{Builds: 2, FrontendRuns: 1, FrontendHits: 1,
		TrainRuns: 1, TrainHits: 1, BaselineRuns: 1, BaselineHits: 1})

	retrained := wc
	retrained.Train = wc.Test
	step("new training input", retrained, base, stageCounts{Builds: 3, FrontendRuns: 1, FrontendHits: 2,
		TrainRuns: 2, TrainHits: 1, BaselineRuns: 1, BaselineHits: 2})

	cs := base
	cs.CommonSuccessor = true
	step("CommonSuccessor", wc, cs, stageCounts{Builds: 4, FrontendRuns: 1, FrontendHits: 3,
		TrainRuns: 3, TrainHits: 1, BaselineRuns: 1, BaselineHits: 3})

	// lex's token switch lowers to a different program under Set III
	// than under Set II.
	step("lex, Set II", lex, BaseOptions(lower.SetII), stageCounts{Builds: 5, FrontendRuns: 2, FrontendHits: 3,
		TrainRuns: 4, TrainHits: 1, BaselineRuns: 2, BaselineHits: 3})
	step("lex, Set III", lex, BaseOptions(lower.SetIII), stageCounts{Builds: 6, FrontendRuns: 3, FrontendHits: 3,
		TrainRuns: 5, TrainHits: 1, BaselineRuns: 3, BaselineHits: 3})

	// lex's switch plan is the same under Sets I and II, and wc has one
	// plan under every set: each job reuses a frontend and a run.
	step("lex, Set I", lex, BaseOptions(lower.SetI), stageCounts{Builds: 7, Shared: 1, FrontendRuns: 3, FrontendHits: 4,
		TrainRuns: 5, TrainHits: 1, BaselineRuns: 3, BaselineHits: 3})
	step("wc, Set II", wc, BaseOptions(lower.SetII), stageCounts{Builds: 8, Shared: 2, FrontendRuns: 3, FrontendHits: 5,
		TrainRuns: 5, TrainHits: 1, BaselineRuns: 3, BaselineHits: 3})

	// Parse and check run once per source.
	if runs, reused := e.checked.counts(); runs != 2 || reused != 6 {
		t.Errorf("checked programs: %d runs (%d reused), want 2 (6)", runs, reused)
	}
}

// One source under Sets I-III at once: every job reads the one checked
// program while the frontends of its two plans lower it, and each job
// gets the run it gets alone.
func TestOneSourceUnderEverySetConcurrently(t *testing.T) {
	w := subset(t, "lex")[0]
	want := map[lower.HeuristicSet]*ProgramRun{}
	for _, set := range Sets() {
		r, err := RunOpts(w, BaseOptions(set))
		if err != nil {
			t.Fatal(err)
		}
		want[set] = r
	}
	e := NewEngine(6, nil)
	const perSet = 4
	runs := make([]*ProgramRun, perSet*len(Sets()))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = e.Get(context.Background(), w, BaseOptions(Sets()[i%len(Sets())]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		set := Sets()[i%len(Sets())]
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		if !reflect.DeepEqual(runs[i].Record(), want[set].Record()) {
			t.Errorf("set %v: the concurrent run differs from the job's own", set)
		}
		if !reflect.DeepEqual(runs[i].Build.SwitchKinds, want[set].Build.SwitchKinds) {
			t.Errorf("set %v: switch census %v, want %v", set, runs[i].Build.SwitchKinds, want[set].Build.SwitchKinds)
		}
	}
	if n, reused := e.checked.counts(); n != 1 || reused != len(runs)-1 {
		t.Errorf("checked programs: %d runs (%d reused), want 1 (%d)", n, reused, len(runs)-1)
	}
	if st := e.Stats(); st.FrontendRuns != 2 || st.FrontendHits != len(runs)-2 {
		t.Errorf("frontends: %d runs (%d reused), want 2 (%d)", st.FrontendRuns, st.FrontendHits, len(runs)-2)
	}
}

// Concurrent requests for one job share single-flight stages: one
// frontend, training and baseline run, and one owner whose run the
// other seven share.
func TestStageMemoSingleFlight(t *testing.T) {
	w := subset(t, "wc")[0]
	e := NewEngine(8, nil)
	runs := make([]*ProgramRun, 8)
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = e.Get(context.Background(), w, BaseOptions(lower.SetI))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !reflect.DeepEqual(runs[i].Record(), runs[0].Record()) {
			t.Errorf("Get %d returned a different run", i)
		}
	}
	want := stageCounts{Builds: 8, Shared: 7, FrontendRuns: 1, FrontendHits: 7, TrainRuns: 1, BaselineRuns: 1}
	if got := countsOf(e.Stats()); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}
