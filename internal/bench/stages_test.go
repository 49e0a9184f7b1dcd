package bench

import (
	"context"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

// The ablation grid is the staged pipeline's reason to exist: five
// variants of one workload must share one frontend and two training runs
// (the four CommonSuccessor=false variants share one, "+common-succ"
// needs its own).
func TestAblationGridSharesStages(t *testing.T) {
	e := NewEngine(4, nil)
	rows, err := RunAblationWith(context.Background(), e, lower.SetIII, []string{"wc"})
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
	if st.FrontendRuns != 1 {
		t.Errorf("frontend runs: %d, want 1 (variants did not share stage 1)", st.FrontendRuns)
	}
	if st.TrainRuns != 2 {
		t.Errorf("training runs: %d, want 2 (one per detection config)", st.TrainRuns)
	}
	if st.FrontendHits == 0 || st.TrainHits == 0 {
		t.Errorf("no stage hits recorded: %+v", st)
	}
}

// AutoBuild's three candidate sets share one stage cache; handing it a
// pre-warmed cache must skip every frontend and training run.
func TestAutoBuildSharesStageCache(t *testing.T) {
	ws := subset(t, "wc")
	w := ws[0]
	cache := pipeline.NewStageCache(0)
	for _, set := range Sets() {
		if _, err := cache.Build(w.Source, w.Train(), BaseOptions(set)); err != nil {
			t.Fatal(err)
		}
	}
	warm := cache.Stats()
	if _, err := pipeline.AutoBuildWith(cache, w.Source, w.Train(), pipeline.Options{Optimize: true}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.FrontendRuns != warm.FrontendRuns || st.TrainRuns != warm.TrainRuns {
		t.Errorf("AutoBuild recomputed warmed stages: before %+v, after %+v", warm, st)
	}
	if st.TrainHits <= warm.TrainHits {
		t.Errorf("AutoBuild did not consult the shared cache: before %+v, after %+v", warm, st)
	}
}
