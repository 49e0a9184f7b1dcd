package bench

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A second suite against a warm disk cache must execute zero
// build+measure jobs and render byte-identical tables and figures.
func TestDiskCacheWarmSuite(t *testing.T) {
	dir := t.TempDir()
	ws := subset(t, "wc", "sort")
	ctx := context.Background()

	cold := NewEngine(4, nil)
	cold.UseStore(openStore(t, dir))
	s1, err := cold.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if want := len(Sets()) * len(ws); cs.Builds != want || cs.DiskMisses != want {
		t.Errorf("cold run: %d builds, %d disk misses; want %d of each", cs.Builds, cs.DiskMisses, want)
	}
	if cs.DiskHits != 0 {
		t.Errorf("cold run reported %d disk hits", cs.DiskHits)
	}

	warm := NewEngine(4, nil)
	warm.UseStore(openStore(t, dir))
	s2, err := warm.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	hs := warm.Stats()
	if hs.Builds != 0 {
		t.Errorf("warm run executed %d builds, want 0", hs.Builds)
	}
	if want := len(Sets()) * len(ws); hs.DiskHits != want {
		t.Errorf("warm run: %d disk hits, want %d", hs.DiskHits, want)
	}
	if got, want := renderAll(t, s2), renderAll(t, s1); got != want {
		t.Errorf("warm-cache output differs from cold output:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
}

// The ablation study must warm-start from the same store too: variant
// options get distinct fingerprints and so distinct entries.
func TestDiskCacheWarmAblation(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold := NewEngine(4, nil)
	cold.UseStore(openStore(t, dir))
	r1, err := RunAblationWith(ctx, cold, lower.SetIII, subset(t, "wc"))
	if err != nil {
		t.Fatal(err)
	}

	warm := NewEngine(4, nil)
	warm.UseStore(openStore(t, dir))
	r2, err := RunAblationWith(ctx, warm, lower.SetIII, subset(t, "wc"))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Builds != 0 {
		t.Errorf("warm ablation executed %d builds, want 0", st.Builds)
	}
	if got, want := AblationTable(lower.SetIII, r2), AblationTable(lower.SetIII, r1); got != want {
		t.Errorf("warm ablation table differs:\n%s\nvs\n%s", got, want)
	}
}

// A run serialized to a record and reloaded must render every table and
// figure byte-for-byte identically to the in-memory run.
func TestRecordRoundTripRendersIdentically(t *testing.T) {
	ws := subset(t, "wc", "sort", "lex")
	ctx := context.Background()
	live, err := NewEngine(4, nil).SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}

	reloaded := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for _, set := range Sets() {
		for _, r := range live.Runs[set] {
			rec := r.Record()
			fp := store.Fingerprint(r.Workload.Source, r.Workload.Train(), r.Workload.Test(), r.Opts)
			data, err := store.Encode(fp, rec)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := store.Decode(data, fp)
			if err != nil {
				t.Fatal(err)
			}
			run, err := RunFromRecord(dec, r.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if run.Build != nil {
				t.Error("reloaded run claims to carry compiled programs")
			}
			reloaded.Runs[set] = append(reloaded.Runs[set], run)
		}
	}
	if got, want := renderAll(t, reloaded), renderAll(t, live); got != want {
		t.Errorf("reloaded suite renders differently:\n--- reloaded ---\n%s\n--- live ---\n%s", got, want)
	}
}

// Corrupting entries on disk must count as invalidations and rebuild,
// never fail or panic.
func TestCorruptDiskEntriesRebuild(t *testing.T) {
	dir := t.TempDir()
	ws := subset(t, "wc")
	ctx := context.Background()

	cold := NewEngine(2, nil)
	cold.UseStore(openStore(t, dir))
	s1, err := cold.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate every entry in place.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	warm := NewEngine(2, nil)
	warm.UseStore(openStore(t, dir))
	s2, err := warm.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatalf("suite over corrupt cache failed: %v", err)
	}
	st := warm.Stats()
	if want := len(Sets()) * len(ws); st.Builds != want || st.DiskInvalid != want {
		t.Errorf("corrupt cache: %d builds, %d invalidations; want %d of each", st.Builds, st.DiskInvalid, want)
	}
	if got, want := renderAll(t, s2), renderAll(t, s1); got != want {
		t.Errorf("rebuild after corruption rendered differently")
	}
}
