package main

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"branchreorder/internal/workload"
)

func sortedNames(l metricList) []string {
	names := append([]string(nil), l.names...)
	sort.Strings(names)
	return names
}

func specNames(ms []metricSpec) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestOnePassPerWorkload runs each workload for one production and one
// traced pass at seed 0, which also checks every output against the
// reference interpreter, the traced products against production and the
// rendered suite against results.txt.
func TestOnePassPerWorkload(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	quality := map[string]map[string]float64{}
	for _, w := range workloads {
		rep := run(config{workload: w.name, seed: 0, seconds: 0, trace: true, setups: 1, golden: "../results.txt"})
		if rep.err != nil || rep.failed != 0 {
			t.Fatalf("%s: %d failed ops, error %v", w.name, rep.failed, rep.err)
		}
		if rep.passes != 2 || rep.attempted%2 != 0 {
			t.Errorf("%s: %d passes and %d ops; want one production and one traced pass of equal length", w.name, rep.passes, rep.attempted)
		}
		if got, want := sortedNames(rep.e2e), specNames(spec.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json lists %v", w.name, got, want)
		}
		if got, want := sortedNames(rep.layers), specNames(spec.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json lists %v", w.name, got, want)
		}
		quality[w.name] = map[string]float64{}
		for _, n := range rep.e2e.names {
			if strings.HasSuffix(n, "_ratio") {
				quality[w.name][n] = rep.e2e.m[n].Value
			}
		}
	}
	for _, w := range []string{"compile", "suite-warm"} {
		if !reflect.DeepEqual(quality[w], quality["paper-suite"]) {
			t.Errorf("%s quality %v differs from paper-suite's %v", w, quality[w], quality["paper-suite"])
		}
	}
}

func TestSeededInputs(t *testing.T) {
	orig := workload.All()
	for i, w := range roster(0) {
		if !bytes.Equal(w.Train(), orig[i].Train()) || !bytes.Equal(w.Test(), orig[i].Test()) {
			t.Errorf("%s: seed 0 inputs differ from the roster's", w.Name)
		}
	}
	sorted := func(b []byte) string {
		s := []byte(string(b))
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return string(s)
	}
	a, b := roster(7), roster(7)
	for i, w := range a {
		if !bytes.Equal(w.Test(), b[i].Test()) || !bytes.Equal(w.Train(), b[i].Train()) {
			t.Errorf("%s: seed 7 inputs differ between two generations", w.Name)
		}
		if bytes.Equal(w.Test(), orig[i].Test()) || sorted(w.Test()) != sorted(orig[i].Test()) {
			t.Errorf("%s: seed 7 test input is not a reordering of the roster's", w.Name)
		}
	}
	long := longInput(a[0], 7)
	if len(long) != longCopies*len(a[0].Test()) || bytes.Equal(long[:len(a[0].Test())], long[len(a[0].Test()):2*len(a[0].Test())]) {
		t.Error("long input is not independently shuffled copies of the test input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	var xs []sample
	for i := 1; i <= 10; i++ {
		xs = append(xs, sample{uint64(i), float64(i)})
	}
	// statistics.quantiles(range(1, 11), n=4)
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		p := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 5; seed++ {
			v := scale * (1 + 0.001*float64(seed))
			d := document{Workload: "compile", Seed: seed, Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"pass_s": {v, "s"}, "ops_per_s": {1 / v, "1/s"}}}}
			if err := appendDoc(p, d); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	base, same, slow := write("a.jsonl", 1), write("b.jsonl", 1.01), write("c.jsonl", 1.5)
	if code := compareFiles([]string{base, "--", same}, "../BENCHMARK.json", io.Discard, io.Discard); code != 0 {
		t.Errorf("compare of runs 1%% apart exited %d", code)
	}
	var out strings.Builder
	if code := compareFiles([]string{base, "--", slow}, "../BENCHMARK.json", &out, io.Discard); code == 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare of a 50%% slowdown exited %d:\n%s", code, out.String())
	}
}
