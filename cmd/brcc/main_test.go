package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

func TestParseSet(t *testing.T) {
	good := map[string]lower.HeuristicSet{
		"I": lower.SetI, "1": lower.SetI,
		"II": lower.SetII, "2": lower.SetII,
		"III": lower.SetIII, "3": lower.SetIII,
	}
	for in, want := range good {
		got, err := parseSet(in)
		if err != nil || got != want {
			t.Errorf("parseSet(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSet("IV"); err == nil {
		t.Error("parseSet(IV) succeeded")
	}
}

func TestTwoPassHelpers(t *testing.T) {
	dir := t.TempDir()
	src := `
int n = 0;
int main() {
	int c;
	while ((c = getchar()) != EOF) {
		if (c == 'a') n = n + 1;
		else if (c == 'b') n = n + 2;
		else n = n + 5;
	}
	putint(n);
	return 0;
}`
	train := make([]byte, 400)
	for i := range train {
		train[i] = 'z'
	}
	profPath := filepath.Join(dir, "prof.txt")
	opts := pipeline.Options{Switch: lower.SetI, Optimize: true}
	if err := runFirstPass(src, opts, train, profPath); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Fatalf("profile file missing or empty: %v", err)
	}
	build, err := runSecondPass(src, opts, profPath)
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if build.ReorderedSeqs() == 0 {
		t.Error("profile-driven second pass reordered nothing")
	}
	// Guard rails.
	if err := runFirstPass(src, opts, nil, profPath); err == nil {
		t.Error("first pass without training input succeeded")
	}
	if _, err := runSecondPass(src, opts, filepath.Join(dir, "nope.txt")); err == nil {
		t.Error("second pass with missing profile succeeded")
	}
	// A profile that does not match the program: a sequence the source
	// lacks, and a valid profile with its first line repeated after it.
	valid, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(valid), "\n")
	for name, body := range map[string]string{
		"unknown.txt":  "seq 99 total 5 counts 5\n",
		"repeated.txt": string(valid) + first + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runSecondPass(src, opts, path); err == nil {
			t.Errorf("second pass accepted the mismatched profile %s", name)
		}
	}
}

func TestLoadInputsWorkload(t *testing.T) {
	src, train, test, err := loadInputs("wc", "", "", true, true)
	if err != nil || src == "" || len(train) == 0 || len(test) == 0 {
		t.Fatalf("loadInputs(wc): %v", err)
	}
	if _, _, _, err := loadInputs("nonesuch", "", "", false, false); err == nil {
		t.Error("unknown workload accepted")
	}
}
