package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, name string, benches map[string]result) string {
	t.Helper()
	doc := document{GoVersion: "go0.0", GOOS: "linux", GOARCH: "amd64", Benchmarks: benches}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinThreshold(t *testing.T) {
	old := writeDoc(t, "old.json", map[string]result{
		"Interp/wc/closure": {NsPerOp: 1000},
		"Build/wc/cold":     {NsPerOp: 2000},
	})
	// +10% and -50%: both inside a 25% threshold.
	new := writeDoc(t, "new.json", map[string]result{
		"Interp/wc/closure": {NsPerOp: 1100},
		"Build/wc/cold":     {NsPerOp: 1000},
	})
	if err := compare(old, new, 25); err != nil {
		t.Errorf("within-threshold compare failed: %v", err)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := writeDoc(t, "old.json", map[string]result{
		"Interp/wc/closure": {NsPerOp: 1000},
		"Build/wc/cold":     {NsPerOp: 2000},
	})
	new := writeDoc(t, "new.json", map[string]result{
		"Interp/wc/closure": {NsPerOp: 2000}, // +100%
		"Build/wc/cold":     {NsPerOp: 2100}, // +5%
	})
	err := compare(old, new, 25)
	if err == nil {
		t.Fatal("regression not flagged")
	}
	if !strings.Contains(err.Error(), "Interp/wc/closure") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "Build/wc/cold") {
		t.Errorf("error names a non-regressed benchmark: %v", err)
	}
}

// Added and retired benchmarks are reported, never regressions — the
// baseline refresh and a CI compare must not fight.
func TestCompareToleratesRosterChanges(t *testing.T) {
	old := writeDoc(t, "old.json", map[string]result{
		"Retired/bench": {NsPerOp: 1000},
		"Interp/wc":     {NsPerOp: 1000},
	})
	new := writeDoc(t, "new.json", map[string]result{
		"Interp/wc": {NsPerOp: 1000},
		"Build/new": {NsPerOp: 123456},
	})
	if err := compare(old, new, 25); err != nil {
		t.Errorf("roster change treated as regression: %v", err)
	}
}

func TestCompareRejectsEmptyDocuments(t *testing.T) {
	empty := writeDoc(t, "empty.json", map[string]result{})
	good := writeDoc(t, "good.json", map[string]result{"Interp/wc": {NsPerOp: 1}})
	if err := compare(empty, good, 25); err == nil {
		t.Error("empty old document accepted")
	}
	if err := compare(good, filepath.Join(t.TempDir(), "missing.json"), 25); err == nil {
		t.Error("missing new document accepted")
	}
}
