// Command brperf converts `go test -bench -benchmem` output into the
// JSON document committed as BENCH_baseline.json, and compares two such
// documents. The rows are the root package's go benchmarks
// (bench_test.go), so each is written once and `go test -cpuprofile`
// profiles any of them. Refresh the baseline with
//
//	go test -run '^$' -benchmem -count 3 \
//	    -bench '^Benchmark(Interp|Build|Train|Suite|Decode|SimWithPredictors|PredictorBattery)$/^(sort|wc|cold-j1|bank|bimodals|roster|roster-replay)$' . |
//	    go run ./cmd/brperf -o BENCH_baseline.json
//
// A row's key is the benchmark's name without its Benchmark prefix and
// without go test's -GOMAXPROCS suffix. A row that -count repeats keeps
// its fastest run, so the baseline holds each row's minimum over the
// runs. A failed benchmark, a malformed result line or output without
// one is an error, so a broken run cannot write a document.
//
// -compare diffs two such documents and fails on regressions, which is
// how CI holds each PR against the committed baseline:
//
//	go run ./cmd/brperf -compare -threshold 50 BENCH_baseline.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurement in the JSON document.
type result struct {
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	N           int     `json:"n"` // iterations the timing is averaged over
}

type document struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Host records where the benchmarks ran (CPU count, GOMAXPROCS,
	// CPU model). -compare prints it but never gates on it, so drift
	// between baselines taken on different machines is diagnosable.
	Host       *hostInfo         `json:"host,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// hostInfo identifies the hardware a document was produced on.
type hostInfo struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel,omitempty"`
}

func (h *hostInfo) String() string {
	if h == nil {
		return "unknown host"
	}
	s := fmt.Sprintf("%d cpus, gomaxprocs %d", h.NumCPU, h.GOMAXPROCS)
	if h.CPUModel != "" {
		s += ", " + h.CPUModel
	}
	return s
}

const usage = `usage: go test -run '^$' -bench PATTERN -benchmem PKG | brperf [-o FILE]
       brperf -compare [-threshold pct] OLD.json NEW.json
`

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	doCompare := flag.Bool("compare", false, "compare two result files: brperf -compare [-threshold pct] OLD.json NEW.json")
	threshold := flag.Float64("threshold", 25, "with -compare, fail if any benchmark slows down by more than this percentage")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	// A character device on stdin is a terminal, not go test output:
	// print the usage rather than wait for input nobody types.
	fi, statErr := os.Stdin.Stat()
	piped := statErr == nil && fi.Mode()&os.ModeCharDevice == 0
	var err error
	switch {
	case *doCompare && flag.NArg() == 2:
		err = compare(flag.Arg(0), flag.Arg(1), *threshold)
	case !*doCompare && flag.NArg() == 0 && piped:
		err = convert(os.Stdin, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brperf:", err)
		os.Exit(1)
	}
}

// parse reads go test -bench -benchmem output. GOOS, GOARCH and the CPU
// model come from go test's header lines and GOMAXPROCS from the rows'
// name suffix; the Go version and CPU count are brperf's own, which
// runs on go test's host and toolchain at the other end of the pipe.
func parse(r io.Reader) (*document, error) {
	doc := &document{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Host:       &hostInfo{NumCPU: runtime.NumCPU()},
		Benchmarks: map[string]result{},
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL"):
			return nil, fmt.Errorf("line %d: benchmark run failed: %s", n, line)
		case strings.HasPrefix(line, "Benchmark"):
			name, procs, res, err := parseResult(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v: %s", n, err, line)
			}
			if len(doc.Benchmarks) > 0 && procs != doc.Host.GOMAXPROCS {
				return nil, fmt.Errorf("line %d: GOMAXPROCS %d where earlier rows ran at %d: %s", n, procs, doc.Host.GOMAXPROCS, line)
			}
			doc.Host.GOMAXPROCS = procs
			if old, ok := doc.Benchmarks[name]; !ok || res.NsPerOp < old.NsPerOp {
				doc.Benchmarks[name] = res
			}
		default:
			switch key, val, _ := strings.Cut(line, ": "); key {
			case "goos":
				doc.GOOS = val
			case "goarch":
				doc.GOARCH = val
			case "cpu":
				doc.Host.CPUModel = val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, errors.New("no benchmark result lines in input")
	}
	return doc, nil
}

// parseResult parses one result line, "BenchmarkName-N  iterations" and
// then value-unit pairs. It keeps ns/op, B/op and allocs/op and skips
// the rest (MB/s, custom metrics). It returns the row's key and the
// GOMAXPROCS the row ran at.
func parseResult(line string) (string, int, result, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return "", 0, result{}, errors.New("malformed result line")
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return "", 0, result{}, fmt.Errorf("malformed iteration count %q", f[1])
	}
	units := map[string]float64{}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", 0, result{}, fmt.Errorf("malformed %s value %q", f[i+1], f[i])
		}
		units[f[i+1]] = v
	}
	ns, okNs := units["ns/op"]
	bytes, okBytes := units["B/op"]
	allocs, okAllocs := units["allocs/op"]
	if !okNs || !okBytes || !okAllocs {
		return "", 0, result{}, errors.New("want ns/op, B/op and allocs/op (run go test with -benchmem)")
	}
	res := result{NsPerOp: ns, AllocsPerOp: int64(allocs), BytesPerOp: int64(bytes), N: n}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// go test appends -GOMAXPROCS to every name unless it is 1. Only a
	// number counts, so Suite/cold-j1 keeps its dash.
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			return name[:i], procs, res, nil
		}
	}
	return name, 1, res, nil
}

// loadDocument reads one brperf JSON document.
func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// compare prints per-benchmark deltas between two result documents and
// returns an error — a nonzero exit — if any shared benchmark's ns/op
// grew by more than threshold percent. Benchmarks present in only one
// document are reported but never count as regressions, so adding or
// retiring a benchmark does not break CI.
func compare(oldPath, newPath string, threshold float64) error {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		return err
	}
	// Host context for cross-machine diffs; informational only.
	if oldDoc.Host != nil || newDoc.Host != nil {
		fmt.Printf("old host: %s\nnew host: %s\n", oldDoc.Host, newDoc.Host)
	}
	names := make([]string, 0, len(oldDoc.Benchmarks)+len(newDoc.Benchmarks))
	for name := range oldDoc.Benchmarks {
		names = append(names, name)
	}
	for name := range newDoc.Benchmarks {
		if _, ok := oldDoc.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressed []string
	for _, name := range names {
		o, okOld := oldDoc.Benchmarks[name]
		n, okNew := newDoc.Benchmarks[name]
		switch {
		case !okOld:
			fmt.Printf("%-28s %14s %14.0f %9s\n", name, "-", n.NsPerOp, "(new)")
		case !okNew:
			fmt.Printf("%-28s %14.0f %14s %9s\n", name, o.NsPerOp, "-", "(gone)")
		default:
			delta := 0.0
			if o.NsPerOp > 0 {
				delta = 100 * (n.NsPerOp/o.NsPerOp - 1)
			}
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressed = append(regressed, name)
			}
			fmt.Printf("%-28s %14.0f %14.0f %+8.1f%%%s\n", name, o.NsPerOp, n.NsPerOp, delta, mark)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), threshold, strings.Join(regressed, ", "))
	}
	return nil
}

// convert reads go test output from in and writes its document to out,
// or to stdout when out is empty.
func convert(in io.Reader, out string) error {
	doc, err := parse(in)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
