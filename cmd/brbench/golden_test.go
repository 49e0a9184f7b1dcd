package main

import (
	"os"
	"strings"
	"testing"

	"branchreorder/internal/sim"
)

// The golden anchor: brbench's stdout must reproduce the committed
// results byte for byte under every execution engine, so "the tables did
// not change" is a test result rather than a manual diff. results.txt is
// the suite followed by the ablation study; results_profile_study.txt is
// the profile-quality study, whose sampled profiles each engine counts in
// its own arm tables.
func TestGoldenResults(t *testing.T) {
	want := readGolden(t, "../../results.txt")
	forEachEngine(t, func(t *testing.T, engine string) {
		got := goldenRun(t, "-q", "-engine", engine) + goldenRun(t, "-q", "-ablation", "-engine", engine)
		checkGolden(t, "results.txt", got, want)
	})
}

func TestGoldenProfileStudy(t *testing.T) {
	want := readGolden(t, "../../results_profile_study.txt")
	forEachEngine(t, func(t *testing.T, engine string) {
		checkGolden(t, "results_profile_study.txt", goldenRun(t, "-q", "-profile-study", "-engine", engine), want)
	})
}

// forEachEngine runs f as a subtest per execution engine.
func forEachEngine(t *testing.T, f func(t *testing.T, engine string)) {
	for _, engine := range []string{"closure", "reference"} {
		t.Run(engine, func(t *testing.T) {
			if _, err := sim.ParseEngine(engine); err != nil {
				t.Fatal(err)
			}
			f(t, engine)
		})
	}
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func goldenRun(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, code := capture(t, args...)
	if code != 0 {
		t.Fatalf("brbench %v exited %d: %s", args, code, stderr)
	}
	return out
}

// checkGolden fails at the first line where got and want differ.
func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("stdout differs from %s at line %d:\n got: %q\nwant: %q", name, i+1, gl, wl)
		}
	}
}
