package bench

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

// trapSrc divides by zero on the first '!' of its input.
const trapSrc = `
int n = 0;
int main() {
	int c;
	while ((c = getchar()) != EOF) {
		if (c == '!') n = n / (c - c);
		else if (c == 'a') n = n + 1;
		else n = n + 2;
	}
	putint(n);
	return 0;
}`

// trapWorkload runs trapSrc on the given inputs.
func trapWorkload(name, train, test string) workload.Workload {
	return workload.Workload{
		Name:   name,
		Source: trapSrc,
		Train:  func() []byte { return []byte(train) },
		Test:   func() []byte { return []byte(test) },
	}
}

// settled waits for the goroutine count to fall back to n: a goroutine
// that has closed its done channel may not have exited yet.
func settled(n int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= n {
			return true
		}
	}
	return false
}

// A failed job reports what a serial build reports — the training error
// before any measurement error, the baseline error before the reordered
// one — and Get returns only after the baseline measurement it started
// has ended, whichever stage failed.
func TestFailedJobJoinsItsBaseline(t *testing.T) {
	// The test input is long, so a baseline measurement left running
	// would still be running when a training trap ends the job.
	long := strings.Repeat("ab", 100_000)
	cases := []struct {
		w    workload.Workload
		want string
	}{
		{trapWorkload("trains-badly", "ab!", long),
			"trains-badly (set II): training run: runtime error in main: division by zero"},
		{trapWorkload("tests-badly", "aab", long+"!"),
			"tests-badly (set II): baseline: sim: runtime error in main: division by zero"},
	}
	start := runtime.NumGoroutine()
	for _, c := range cases {
		e := NewEngine(1, nil)
		variants := AblationVariants(lower.SetII)
		for _, v := range variants {
			_, err := e.Get(context.Background(), c.w, v.Opts)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s/%s: error %v, want %q", c.w.Name, v.Name, err, c.want)
			}
			for _, bucket := range e.baselines.slots {
				for _, b := range bucket {
					select {
					case <-b.done:
					default:
						t.Errorf("%s/%s: Get returned before its baseline measurement ended", c.w.Name, v.Name)
					}
				}
			}
		}
		if _, err := RunOpts(c.w, BaseOptions(lower.SetII)); err == nil || err.Error() != c.want {
			t.Errorf("%s: RunOpts error %v, want %q", c.w.Name, err, c.want)
		}
		// The variants share one program and test input, so the
		// baseline runs once and its error serves every variant.
		if st := e.Stats(); st.BaselineRuns != 1 || st.BaselineHits != len(variants)-1 {
			t.Errorf("%s: %d baseline runs (%d reused), want 1 (%d)", c.w.Name, st.BaselineRuns, st.BaselineHits, len(variants)-1)
		}
	}
	if !settled(start) {
		t.Errorf("%d goroutines outlive the jobs, %d before them", runtime.NumGoroutine(), start)
	}
}

// A failed stage keeps its error, and every job that shares it names
// itself: trapSrc has no switch, so it lowers to one program under every
// heuristic set, and the three jobs share one failed training run.
func TestSharedFailureNamesEachSet(t *testing.T) {
	w := trapWorkload("trains-badly", "ab!", "aab")
	e := NewEngine(1, nil)
	for _, set := range Sets() {
		_, err := e.Get(context.Background(), w, BaseOptions(set))
		want := fmt.Sprintf("trains-badly (set %v): training run: runtime error in main: division by zero", set)
		if err == nil || err.Error() != want {
			t.Errorf("set %v: error %v, want %q", set, err, want)
		}
	}
	if st := e.Stats(); st.TrainRuns != 1 || st.Shared != 2 {
		t.Errorf("%d training runs, %d shared; want 1, 2", st.TrainRuns, st.Shared)
	}
}

// The ablation variants of one program wait on one baseline measurement,
// and it is the measurement a serial build of each variant takes.
func TestAblationMeasuresEachBaselineOnce(t *testing.T) {
	ws := subset(t, "wc", "sort")
	ctx := context.Background()
	e := NewEngine(4, nil)
	if _, err := RunAblationWith(ctx, e, lower.SetII, ws); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.BaselineRuns != 2 || st.BaselineHits != 8 {
		t.Errorf("%d baseline runs (%d reused), want 2 (8)", st.BaselineRuns, st.BaselineHits)
	}
	for _, j := range AblationJobs(lower.SetII, ws) {
		got, err := e.Get(ctx, j.Workload, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOpts(j.Workload, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Base, want.Base) {
			t.Errorf("%s%s: shared baseline differs from a serial build's", j.Workload.Name, optsSuffix(j.Opts))
		}
	}
}
