package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func capture(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// The determinism guard of the worker pool: brbench -j N stdout must be
// byte-identical to serial -j 1 stdout, for a single table and for the
// whole table+figure dump.
func TestParallelOutputMatchesSerial(t *testing.T) {
	for _, sel := range [][]string{
		{"-table", "8"},
		{}, // everything
	} {
		base := append([]string{"-q", "-workloads", "wc,sort,lex"}, sel...)
		serial, _, code := capture(t, append(base, "-j", "1")...)
		if code != 0 {
			t.Fatalf("%v -j 1 exited %d", sel, code)
		}
		parallel, _, code := capture(t, append(base, "-j", "8")...)
		if code != 0 {
			t.Fatalf("%v -j 8 exited %d", sel, code)
		}
		if parallel != serial {
			t.Errorf("%v: -j 8 stdout differs from -j 1 stdout", sel)
		}
		if len(serial) == 0 {
			t.Errorf("%v: empty output", sel)
		}
	}
}

func TestStaticTablesNeedNoBuilds(t *testing.T) {
	out, errw, code := capture(t, "-table", "2")
	if code != 0 || !strings.Contains(out, "Heuristics") {
		t.Fatalf("-table 2: code %d, out %q", code, out)
	}
	if strings.Contains(errw, "builds") {
		t.Errorf("-table 2 ran the engine: %q", errw)
	}
}

func TestSummaryLine(t *testing.T) {
	_, errw, code := capture(t, "-workloads", "wc", "-table", "4")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	if !strings.Contains(errw, "builds") || !strings.Contains(errw, "elapsed") {
		t.Errorf("missing timing summary on stderr: %q", errw)
	}
	// wc lowers identically under all three sets: one job measures it.
	if !strings.Contains(errw, "brbench: 3 builds, 2 shared,") {
		t.Errorf("summary does not count the 2 shared jobs: %q", errw)
	}
	// Per-workload build seconds counted time spent waiting on other
	// jobs' stages, so the summary no longer prints them.
	if strings.Contains(errw, "wall-clock") {
		t.Errorf("summary still prints per-workload build seconds: %q", errw)
	}
	// Each drift arm of the study trains wc once sampled at 1/64.
	_, errw, code = capture(t, "-profile-study", "-profile-rates", "1,64", "-workloads", "wc")
	if code != 0 {
		t.Fatalf("-profile-study exited %d: %s", code, errw)
	}
	if !strings.Contains(errw, ", 2 sampled training runs") {
		t.Errorf("summary does not count the sampled training runs: %q", errw)
	}
	_, errw, code = capture(t, "-q", "-workloads", "wc", "-table", "4")
	if code != 0 {
		t.Fatalf("-q exited %d", code)
	}
	if errw != "" {
		t.Errorf("-q still wrote to stderr: %q", errw)
	}
}

// Bad selectors, and flags the selected mode would silently drop, fail
// before the engine runs: exit 1, and no build summary on stderr.
func TestBadInputs(t *testing.T) {
	cache := t.TempDir()
	for name, args := range map[string][]string{
		"unknown workload":      {"-workloads", "nosuch", "-table", "4"},
		"empty workloads":       {"-workloads", ",", "-table", "4"},
		"repeated workload":     {"-workloads", "wc,sort,wc", "-table", "4"},
		"table 99":              {"-workloads", "wc", "-table", "99"},
		"table 1":               {"-workloads", "wc", "-table", "1"},
		"negative table":        {"-workloads", "wc", "-table", "-4"},
		"figure 9":              {"-workloads", "wc", "-figure", "9"},
		"figure 14":             {"-workloads", "wc", "-figure", "14"},
		"table and figure":      {"-workloads", "wc", "-table", "4", "-figure", "11"},
		"static and figure":     {"-workloads", "wc", "-table", "2", "-figure", "11"},
		"table 1, cache dir":    {"-workloads", "wc", "-table", "1", "-cache-dir", cache},
		"static table and json": {"-table", "2", "-json", filepath.Join(cache, "x.json")},
		"static table and gc":   {"-table", "2", "-cache-dir", cache, "-cache-gc", "24h"},
		"ablation and table":    {"-workloads", "wc", "-ablation", "-table", "2"},
		"ablation and figure":   {"-workloads", "wc", "-ablation", "-figure", "11"},
		"ablation and json":     {"-workloads", "wc", "-ablation", "-json", filepath.Join(cache, "x.json")},
		"gc without cache dir":  {"-workloads", "wc", "-cache-gc", "1h"},
		"negative gc age":       {"-workloads", "wc", "-cache-dir", cache, "-cache-gc", "-1h"},
		"deleted fast engine":   {"-workloads", "wc", "-table", "4", "-engine", "fast"},
	} {
		_, stderr, code := capture(t, args...)
		if code != 1 {
			t.Errorf("%s: exited %d, want 1", name, code)
		}
		if strings.Contains(stderr, "builds") {
			t.Errorf("%s: ran the engine before failing: %q", name, stderr)
		}
	}
	// The repeated-name error names the repeated workload.
	if _, stderr, _ := capture(t, "-workloads", "wc,sort,wc", "-table", "4"); !strings.Contains(stderr, `"wc" twice`) {
		t.Errorf("repeated workload error does not name it: %q", stderr)
	}
	if entries, err := os.ReadDir(cache); err != nil || len(entries) != 0 {
		t.Errorf("a rejected run wrote to -cache-dir: %d entries, %v", len(entries), err)
	}
	if _, _, code := capture(t, "-nosuchflag"); code != 2 {
		t.Error("bad flag not rejected with usage exit code")
	}
}

// A second run against a warm -cache-dir must execute zero builds and
// print identical tables.
func TestCacheDirWarmRun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workloads", "wc,sort", "-cache-dir", dir, "-table", "4"}
	cold, coldErr, code := capture(t, args...)
	if code != 0 {
		t.Fatalf("cold run exited %d", code)
	}
	if !strings.Contains(coldErr, "disk hits") || !strings.Contains(coldErr, "disk misses") {
		t.Errorf("summary missing disk-tier counters: %q", coldErr)
	}
	warm, warmErr, code := capture(t, args...)
	if code != 0 {
		t.Fatalf("warm run exited %d", code)
	}
	if warm != cold {
		t.Errorf("warm-cache stdout differs from cold stdout")
	}
	if !strings.Contains(warmErr, "brbench: 0 builds") {
		t.Errorf("warm run still built: %q", warmErr)
	}
	if strings.Contains(warmErr, "0 disk hits") {
		t.Errorf("warm run served nothing from disk: %q", warmErr)
	}
}

// -json must dump one record per (heuristic set, workload) pair in the
// export schema.
func TestJSONDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	_, _, code := capture(t, "-q", "-workloads", "wc,sort", "-table", "4", "-json", path)
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  int `json:"schema"`
		Records []struct {
			Workload string          `json:"workload"`
			Set      int             `json:"set"`
			Options  json.RawMessage `json:"options"`
			Base     json.RawMessage `json:"base"`
			Reord    json.RawMessage `json:"reord"`
			Static   int64           `json:"staticBase"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Schema == 0 {
		t.Error("-json output missing schema version")
	}
	if want := 3 * 2; len(doc.Records) != want { // 3 sets × 2 workloads
		t.Errorf("%d records, want %d", len(doc.Records), want)
	}
	for _, r := range doc.Records {
		if r.Workload == "" || r.Base == nil || r.Reord == nil || r.Static <= 0 {
			t.Errorf("incomplete record: %+v", r)
		}
	}
}

// Both engines write the same -json bytes: a record describes the
// measured program, not the engine that measured it.
func TestJSONSameUnderEveryEngine(t *testing.T) {
	var docs [][]byte
	for _, engine := range []string{"closure", "reference"} {
		path := filepath.Join(t.TempDir(), "runs.json")
		if _, stderr, code := capture(t, "-q", "-workloads", "wc", "-table", "4", "-json", path, "-engine", engine); code != 0 {
			t.Fatalf("-engine %s exited %d: %s", engine, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		i := 0
		for i < min(len(docs[0]), len(docs[1])) && docs[0][i] == docs[1][i] {
			i++
		}
		t.Errorf("-json differs between the closure and reference engines from byte %d: %.60q vs %.60q",
			i, docs[0][i:], docs[1][i:])
	}
}

// An unknown -workloads name must fail listing the valid roster.
func TestUnknownWorkloadListsRoster(t *testing.T) {
	_, stderr, code := capture(t, "-workloads", "nosuch", "-table", "4")
	if code == 0 {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{`"nosuch"`, "valid workloads", "wc", "yacc", "hyphen"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("error does not mention %q: %q", want, stderr)
		}
	}
}

// -cache-gc must evict entries older than the bound before the run, so
// the evicted jobs rebuild and the summary shows the collection.
func TestCacheGCFlag(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workloads", "wc", "-cache-dir", dir, "-table", "4"}
	if _, _, code := capture(t, args...); code != 0 {
		t.Fatal("cold run failed")
	}
	// Backdate every entry beyond the GC bound. The cold run stores one
	// build record per heuristic set.
	old := time.Now().Add(-48 * time.Hour)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stderr, code := capture(t, append(args, "-cache-gc", "24h")...)
	if code != 0 {
		t.Fatalf("gc run exited %d", code)
	}
	if !strings.Contains(stderr, "cache gc evicted 3 of 3 entries") {
		t.Errorf("gc summary missing or wrong: %q", stderr)
	}
	if !strings.Contains(stderr, "3 builds") {
		t.Errorf("evicted jobs were not rebuilt: %q", stderr)
	}
}

// The ablation study must run through the shared engine and render.
func TestAblationViaEngine(t *testing.T) {
	out, _, code := capture(t, "-q", "-ablation", "-workloads", "wc,sort")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	for _, want := range []string{"no-cmp-reuse", "wc", "sort"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
}
