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
	src, train, test, err := loadInputs("wc", nil, "", "", true, true)
	if err != nil || src == "" || len(train) == 0 || len(test) == 0 {
		t.Fatalf("loadInputs(wc): %v", err)
	}
	if _, _, _, err := loadInputs("nonesuch", nil, "", "", false, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRejectsIgnoredFlags: each row gives a flag that its mode would
// ignore, and must be rejected with an error naming it.
func TestRejectsIgnoredFlags(t *testing.T) {
	firstPass := []string{"-workload", "wc", "-train-builtin", "-profile-out", "p.txt"}
	secondPass := []string{"-workload", "wc", "-profile-in", "p.txt"}
	for _, c := range []struct {
		args []string
		want []string // the flags the error must name
	}{
		{append(firstPass, "-run-builtin"), []string{"-profile-out", "-run-builtin"}},
		{append(firstPass, "-run", "in.txt"), []string{"-profile-out", "-run"}},
		{append(firstPass, "-dump"), []string{"-profile-out", "-dump"}},
		{append(firstPass, "-seqs"), []string{"-profile-out", "-seqs"}},
		{append(firstPass, "-compare"), []string{"-profile-out", "-compare"}},
		{append(firstPass, "-profile-in", "q.txt"), []string{"-profile-out", "-profile-in"}},
		{append(secondPass, "-train-builtin"), []string{"-profile-in", "-train-builtin"}},
		{append(secondPass, "-train", "t.txt"), []string{"-profile-in", "-train"}},
		{[]string{"-workload", "wc", "-compare"}, []string{"-compare", "-run-builtin", "-train-builtin"}},
		{[]string{"-workload", "wc", "-train-builtin", "-compare"}, []string{"-compare", "-run-builtin"}},
		{[]string{"-workload", "wc", "-run-builtin", "-compare"}, []string{"-compare", "-profile-in"}},
		{[]string{"-workload", "lex", "-seqs", "-common-succ"}, []string{"-common-succ", "-train-builtin"}},
		// A flag named on the command line counts whatever its value.
		{[]string{"-workload", "wc", "-engine", "reference", "-seqs"}, []string{"-engine", "-train", "-run"}},
		{[]string{"-workload", "wc", "-engine", "closure", "-profile-in", "p.txt"}, []string{"-engine", "-run"}},
		{[]string{"-workload", "wc", "-common-succ=false", "-seqs"}, []string{"-common-succ", "-train-builtin"}},
		{[]string{"-workload", "wc", "-profile-out", "", "-seqs"}, []string{"-profile-out", "-seqs"}},
		{append(secondPass, "-train-builtin=false"), []string{"-profile-in", "-train-builtin"}},
		{[]string{"-workload", "wc", "-train-builtin", "-profile-out", ""}, []string{"-profile-out", "file name"}},
		{[]string{"-workload", "wc", "-train", "", "-run-builtin"}, []string{"-train", "file name"}},
	} {
		err := parseFlags(c.args).check()
		if err == nil {
			t.Errorf("%q accepted", c.args)
			continue
		}
		for _, flag := range c.want {
			if !strings.Contains(err.Error(), flag) {
				t.Errorf("%q: error %q does not name %s", c.args, err, flag)
			}
		}
	}
	for _, args := range [][]string{
		{"-workload", "wc", "-dump", "-seqs", "-run-builtin"},
		{"-workload", "wc", "-train-builtin", "-run-builtin", "-compare", "-dump", "-seqs", "-common-succ"},
		firstPass,
		append(firstPass, "-engine", "reference"),
		append(secondPass, "-run-builtin", "-compare", "-dump", "-seqs", "-engine", "reference"),
		{"-workload", "wc", "-run-builtin", "-engine", "closure"},
	} {
		if err := parseFlags(args).check(); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
}
