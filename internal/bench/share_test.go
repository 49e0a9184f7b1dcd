package bench

import (
	"context"
	"reflect"
	"testing"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
	"branchreorder/internal/workload"
)

// runAt returns the suite's run of the named workload under set.
func runAt(t *testing.T, s *Suite, name string, set lower.HeuristicSet) *ProgramRun {
	t.Helper()
	for _, r := range s.Runs[set] {
		if r.Workload.Name == name {
			return r
		}
	}
	t.Fatalf("no %s run under set %v", name, set)
	return nil
}

// Content sharing must be invisible in the results: a full-roster suite
// renders and records exactly what building every job on its own does.
// Of the 51 jobs only 19 lower to distinct programs — every workload but
// yacc (whose operator switch is indirect under Set I) and lex (whose
// token switch is linear under Set III) lowers identically under all
// three sets — so 32 jobs are shared and 19 train.
func TestSharedSuiteMatchesUnsharedRuns(t *testing.T) {
	ws := workload.All()
	e := NewEngine(0, nil)
	got, err := e.SuiteOf(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	want := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for _, set := range Sets() {
		for _, w := range ws {
			r, err := RunOpts(w, BaseOptions(set))
			if err != nil {
				t.Fatal(err)
			}
			want.Runs[set] = append(want.Runs[set], r)
		}
	}
	if !reflect.DeepEqual(Records(got.AllRuns()), Records(want.AllRuns())) {
		t.Error("shared suite records differ from unshared RunOpts records")
	}
	if g, w := renderAll(t, got), renderAll(t, want); g != w {
		t.Errorf("shared suite renders differently:\n--- shared ---\n%s\n--- unshared ---\n%s", g, w)
	}
	for _, r := range got.AllRuns() {
		if r.Build == nil || !reflect.DeepEqual(r.Build.SwitchKinds, runAt(t, want, r.Workload.Name, r.Set).Build.SwitchKinds) {
			t.Errorf("%s (set %v): switch census is not the job's own", r.Workload.Name, r.Set)
		}
	}

	st := e.Stats()
	if st.Builds != 51 || st.Shared != 32 || st.TrainRuns != 19 {
		t.Errorf("stats: %d builds, %d shared, %d training runs; want 51, 32, 19", st.Builds, st.Shared, st.TrainRuns)
	}
	// A shared run carries its owner's measurements; distinct programs
	// never do.
	same := func(name string, a, b lower.HeuristicSet) bool {
		return runAt(t, got, name, a).Base == runAt(t, got, name, b).Base
	}
	if !same("wc", lower.SetI, lower.SetII) || !same("wc", lower.SetII, lower.SetIII) {
		t.Error("wc: identical programs under Sets I-III were not shared")
	}
	if same("yacc", lower.SetI, lower.SetII) {
		t.Error("yacc: Sets I and II lower differently but were shared")
	}
	if same("lex", lower.SetII, lower.SetIII) {
		t.Error("lex: Sets II and III lower differently but were shared")
	}
}

// Merging jobs never share: each training run is a contribution to the
// persistent merged profile, so skipping one would change later builds.
func TestProfileMergeSuiteSharesNothing(t *testing.T) {
	ws := subset(t, "wc", "sort")
	e := NewEngine(4, nil)
	e.UseStore(openStore(t, t.TempDir()))
	merge := func(o pipeline.Options) pipeline.Options {
		o.Profile = profile.Config{Merge: true}
		return o
	}
	if _, err := e.SuiteOfOpts(context.Background(), ws, merge); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Shared != 0 || st.TrainRuns != 6 {
		t.Errorf("merge suite: %d shared, %d training runs; want 0, 6", st.Shared, st.TrainRuns)
	}
}

// A shared job must still leave its own whole-build and profile records
// behind, so a warm store serves every job without building.
func TestSharedJobsPersistTheirOwnRecords(t *testing.T) {
	dir := t.TempDir()
	ws := workload.All()
	ctx := context.Background()
	cold := NewEngine(0, nil)
	cold.UseStore(openStore(t, dir))
	s1, err := cold.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Shared != 32 {
		t.Errorf("cold run: %d shared, want 32", st.Shared)
	}
	disk := openStore(t, dir)
	builds, profiles := 0, 0
	for _, j := range SuiteJobs(ws) {
		train := TrainInput(j.Workload, j.Opts)
		if _, st := disk.Get(store.Fingerprint(j.Workload.Source, train, j.Workload.Test(), j.Opts)); st == store.Hit {
			builds++
		}
		if _, st := disk.GetProfile(store.ProfileFingerprint(j.Workload.Source, train, j.Opts.Frontend(), j.Opts.Detection())); st == store.Hit {
			profiles++
		}
	}
	if builds != 51 || profiles != 51 {
		t.Errorf("store holds %d build and %d profile entries for the 51 jobs, want 51 of each", builds, profiles)
	}

	warm := NewEngine(0, nil)
	warm.UseStore(openStore(t, dir))
	s2, err := warm.SuiteOf(ctx, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits != 51 {
		t.Errorf("warm run: %d builds, %d disk hits; want 0, 51", st.Builds, st.DiskHits)
	}
	if got, want := renderAll(t, s2), renderAll(t, s1); got != want {
		t.Error("warm-store output differs from the cold shared run")
	}
}
