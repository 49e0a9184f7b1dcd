package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// header is go test's preamble on the host the baseline was taken on.
const header = `goos: linux
goarch: amd64
pkg: branchreorder
cpu: Intel(R) Xeon(R) Processor
`

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		want        map[string]result
		procs       int
		err         string // substring of the error; "" wants success
	}{{
		name: "GOMAXPROCS suffix",
		input: header + `BenchmarkDecode/wc-2   	  565920	      1962 ns/op	    2928 B/op	       4 allocs/op
PASS
ok  	branchreorder	1.2s
`,
		want:  map[string]result{"Decode/wc": {NsPerOp: 1962, BytesPerOp: 2928, AllocsPerOp: 4, N: 565920}},
		procs: 2,
	}, {
		name:  "no suffix at GOMAXPROCS 1",
		input: header + "BenchmarkDecode/wc \t  565920\t      1962 ns/op\t    2928 B/op\t       4 allocs/op\n",
		want:  map[string]result{"Decode/wc": {NsPerOp: 1962, BytesPerOp: 2928, AllocsPerOp: 4, N: 565920}},
		procs: 1,
	}, {
		name:  "dash in a sub-benchmark name",
		input: header + "BenchmarkSuite/cold-j1-2  \t      27\t  43553961 ns/op\t 6429650 B/op\t   70339 allocs/op\n",
		want:  map[string]result{"Suite/cold-j1": {NsPerOp: 43553961, BytesPerOp: 6429650, AllocsPerOp: 70339, N: 27}},
		procs: 2,
	}, {
		name:  "dash in a sub-benchmark name, no suffix",
		input: header + "BenchmarkSuite/cold-j1  \t      27\t  43553961 ns/op\t 6429650 B/op\t   70339 allocs/op\n",
		want:  map[string]result{"Suite/cold-j1": {NsPerOp: 43553961, BytesPerOp: 6429650, AllocsPerOp: 70339, N: 27}},
		procs: 1,
	}, {
		name:  "MB/s column",
		input: header + "BenchmarkInterp/wc/closure-2 \t     644\t   2087269 ns/op\t  19.23 MB/s\t       0 B/op\t       0 allocs/op\n",
		want:  map[string]result{"Interp/wc/closure": {NsPerOp: 2087269, N: 644}},
		procs: 2,
	}, {
		name: "-count keeps the fastest run",
		input: header + `BenchmarkPredictorBattery/bimodals-2   	 8517522	       140.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkPredictorBattery/bimodals-2   	 9000000	       132.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkPredictorBattery/bimodals-2   	 8000000	       150.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkBuild/wc/cold-2   	     435	   2977633 ns/op	  147102 B/op	    3166 allocs/op
`,
		want: map[string]result{
			"PredictorBattery/bimodals": {NsPerOp: 132.6, N: 9000000},
			"Build/wc/cold":             {NsPerOp: 2977633, BytesPerOp: 147102, AllocsPerOp: 3166, N: 435},
		},
		procs: 2,
	}, {
		name:  "malformed result line",
		input: header + "BenchmarkDecode/wc-2   \t  565920\t      fast ns/op\t    2928 B/op\t       4 allocs/op\n",
		err:   "line 5: malformed ns/op value",
	}, {
		name:  "result line without -benchmem",
		input: header + "BenchmarkDecode/wc-2   \t  565920\t      1962 ns/op\n",
		err:   "line 5: want ns/op, B/op and allocs/op",
	}, {
		name: "rows at two GOMAXPROCS values (-cpu 1,2)",
		input: header + `BenchmarkDecode/wc   	  565920	      1962 ns/op	    2928 B/op	       4 allocs/op
BenchmarkDecode/wc-2   	  565920	      1962 ns/op	    2928 B/op	       4 allocs/op
`,
		err: "line 6: GOMAXPROCS 2 where earlier rows ran at 1",
	}, {
		name: "failed benchmark",
		input: header + `BenchmarkDecode/wc-2   	  565920	      1962 ns/op	    2928 B/op	       4 allocs/op
BenchmarkTrain/wc-2         	--- FAIL: BenchmarkTrain/wc-2
    bench_test.go:290: training run failed
--- FAIL: BenchmarkTrain
FAIL
exit status 1
FAIL	branchreorder	0.4s
`,
		err: "line 6: benchmark run failed: BenchmarkTrain/wc-2",
	}, {
		name:  "FAIL line",
		input: "FAIL\tbranchreorder [build failed]\n",
		err:   "line 1: benchmark run failed: FAIL\tbranchreorder [build failed]",
	}, {
		name:  "no result lines",
		input: header + "PASS\nok  \tbranchreorder\t0.003s [no tests to run]\n",
		err:   "no benchmark result lines",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := parse(strings.NewReader(tc.input))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(doc.Benchmarks, tc.want) {
				t.Errorf("benchmarks %+v, want %+v", doc.Benchmarks, tc.want)
			}
			if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Host.CPUModel != "Intel(R) Xeon(R) Processor" {
				t.Errorf("header read as %s/%s, cpu %q", doc.GOOS, doc.GOARCH, doc.Host.CPUModel)
			}
			if doc.Host.GOMAXPROCS != tc.procs {
				t.Errorf("gomaxprocs %d, want %d", doc.Host.GOMAXPROCS, tc.procs)
			}
		})
	}
}
