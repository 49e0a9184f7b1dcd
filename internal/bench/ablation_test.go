package bench

import (
	"context"
	"strings"
	"testing"

	"branchreorder/internal/lower"
)

func TestAblation(t *testing.T) {
	rows, err := RunAblationWith(context.Background(), NewEngine(0, nil), lower.SetIII, subset(t, "wc", "sort", "lex"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if jobs, want := AblationJobs(lower.SetIII, subset(t, "wc", "sort", "lex")), 3*len(AblationVariants(lower.SetIII)); len(jobs) != want {
		t.Errorf("AblationJobs: %d jobs, want %d", len(jobs), want)
	}
	for _, r := range rows {
		full := r.Insts["full"]
		if full == 0 || r.Baseline == 0 {
			t.Fatalf("%s: zero counts", r.Workload)
		}
		if full > r.Baseline {
			t.Errorf("%s: full transformation worse than baseline (%d > %d)",
				r.Workload, full, r.Baseline)
		}
		// Comparison reuse and tail duplication are deterministic wins:
		// disabling them can only cost instructions (or tie).
		for _, name := range []string{"no-cmp-reuse", "no-tail-dup"} {
			if r.Insts[name] < full {
				t.Errorf("%s: %s ran fewer insts (%d) than the full transform (%d)",
					r.Workload, name, r.Insts[name], full)
			}
		}
		// Bound ordering is a training-profile heuristic, so on test
		// input it may lose by a whisker; it must stay within 1%.
		if nb := r.Insts["no-bound-order"]; nb < full {
			if float64(full-nb) > 0.01*float64(full) {
				t.Errorf("%s: bound ordering hurt by more than noise: %d vs %d",
					r.Workload, full, nb)
			}
		}
		if r.Insts["+common-succ"] > full {
			t.Errorf("%s: common-successor extension made things worse (%d > %d)",
				r.Workload, r.Insts["+common-succ"], full)
		}
	}
	text := AblationTable(lower.SetIII, rows)
	if !strings.Contains(text, "no-cmp-reuse") || !strings.Contains(text, "wc") {
		t.Errorf("table malformed:\n%s", text)
	}
	t.Logf("\n%s", text)
}
