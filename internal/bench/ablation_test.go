package bench

import (
	"context"
	"strings"
	"testing"

	"branchreorder/internal/lower"
)

func TestAblation(t *testing.T) {
	rows, err := RunAblation(lower.SetIII, []string{"wc", "sort", "lex"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
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

// The ablation grid must shard exactly like the suite matrix: each job
// in one shard, and the sharded-and-merged study byte-identical to the
// direct one with zero rebuilds.
func TestAblationJobsShardAndMerge(t *testing.T) {
	ws := subset(t, "wc", "sort")
	set := Sets()[2]
	jobs := AblationJobs(set, ws)
	if want := len(ws) * len(AblationVariants(set)); len(jobs) != want {
		t.Fatalf("AblationJobs: %d jobs, want %d", len(jobs), want)
	}
	const n = 2
	seen := map[Key]int{}
	var shards [][]Job
	for i := 0; i < n; i++ {
		shard := ShardJobs(jobs, i, n)
		shards = append(shards, shard)
		for _, j := range shard {
			seen[Key{Workload: j.Workload.Name, Opts: j.Opts}]++
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("shards cover %d jobs, want %d", len(seen), len(jobs))
	}

	ctx := context.Background()
	direct, err := RunAblationWith(ctx, NewEngine(4, nil), set, []string{"wc", "sort"})
	if err != nil {
		t.Fatal(err)
	}
	merged := NewEngine(4, nil)
	for i, shard := range shards {
		e := NewEngine(4, nil)
		runs, err := e.RunJobs(ctx, shard)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, r := range runs {
			merged.Seed(r)
		}
	}
	rows, err := RunAblationWith(ctx, merged, set, []string{"wc", "sort"})
	if err != nil {
		t.Fatal(err)
	}
	if st := merged.Stats(); st.Builds != 0 {
		t.Errorf("merged ablation executed %d builds, want 0", st.Builds)
	}
	if got, want := AblationTable(set, rows), AblationTable(set, direct); got != want {
		t.Errorf("sharded ablation differs:\n--- merged ---\n%s--- direct ---\n%s", got, want)
	}
}
