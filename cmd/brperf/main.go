// Command brperf measures the execution core's headline benchmarks —
// interpreter throughput on both engines, decode cost, the training
// stage, the full measurement path, a cold suite and the predictor
// battery — and writes them as a JSON document. Committing the output
// as BENCH_baseline.json (and diffing later runs against it) gives the
// repo a performance trajectory that survives across machines and PRs:
//
//	go run ./cmd/brperf -o BENCH_baseline.json
//	go run ./cmd/brperf | diff BENCH_baseline.json -   # eyeball a change
//
// All but the Train and Suite rows are also ordinary go benchmarks
// (go test -bench 'Interp|Decode|Build|SimWithPredictors|PredictorBattery');
// brperf exists so CI and scripts get machine-readable output without
// parsing benchmark text.
//
// -compare diffs two such documents and fails on regressions, which is
// how CI holds each PR against the committed baseline:
//
//	go run ./cmd/brperf -compare -threshold 50 BENCH_baseline.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"branchreorder/internal/bench"
	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
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

// collectHost gathers the running host's info. The CPU model comes from
// /proc/cpuinfo when readable (Linux); elsewhere it stays empty.
func collectHost() *hostInfo {
	h := &hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, val, ok := strings.Cut(name, ":"); ok {
					h.CPUModel = strings.TrimSpace(val)
					break
				}
			}
		}
	}
	return h
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

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	doCompare := flag.Bool("compare", false, "compare two result files: brperf -compare [-threshold pct] OLD.json NEW.json")
	threshold := flag.Float64("threshold", 25, "with -compare, fail if any benchmark slows down by more than this percentage")
	flag.Parse()
	var err error
	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: brperf -compare [-threshold pct] OLD.json NEW.json")
			os.Exit(2)
		}
		err = compare(flag.Arg(0), flag.Arg(1), *threshold)
	} else {
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brperf:", err)
		os.Exit(1)
	}
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

// frontend compiles one workload the way the benchmarks measure it.
func frontend(name string) (*lower.Result, workload.Workload, error) {
	w, ok := workload.Named(name)
	if !ok {
		return nil, w, fmt.Errorf("workload %q missing", name)
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	return front, w, err
}

// grepBranchStream records every (branchID, taken) event of grep's test
// run. Same stream as the go test benchmark
// (BenchmarkPredictorBattery/roster).
func grepBranchStream() ([]int, []bool, error) {
	front, w, err := frontend("grep")
	if err != nil {
		return nil, nil, err
	}
	code, err := interp.Decode(front.Prog)
	if err != nil {
		return nil, nil, err
	}
	var ids []int
	var taken []bool
	m := &interp.FastMachine{Code: code, Input: w.Test(), OnBranch: func(id int, t bool) {
		ids = append(ids, id)
		taken = append(taken, t)
	}}
	if _, err := m.Run(); err != nil {
		return nil, nil, fmt.Errorf("grep test run: %w", err)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("grep test run executed no branches")
	}
	return ids, taken, nil
}

// encodeBranches packs a recorded stream into OnBranches events.
// Same as the go test benchmark's.
func encodeBranches(ids []int, taken []bool) []uint32 {
	events := make([]uint32, len(ids))
	for i, id := range ids {
		events[i] = interp.BranchEvent(id, taken[i])
	}
	return events
}

// replayChunks replays n events, cycling through the stream, in chunks
// of at most interp.BranchChunk that never wrap around its end.
func replayChunks(bank *predictor.Bank, events []uint32, n int) {
	for pos := 0; n > 0; {
		k := min(n, interp.BranchChunk, len(events)-pos)
		bank.Replay(events[pos : pos+k])
		n -= k
		if pos += k; pos == len(events) {
			pos = 0
		}
	}
}

func run(out string) error {
	doc := document{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Host:       collectHost(),
		Benchmarks: map[string]result{},
	}
	record := func(name string, r testing.BenchmarkResult) {
		doc.Benchmarks[name] = result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		fmt.Fprintf(os.Stderr, "brperf: %-28s %12.0f ns/op  %6d allocs/op  (n=%d)\n",
			name, doc.Benchmarks[name].NsPerOp, r.AllocsPerOp(), r.N)
	}

	// Interpreter throughput, both engines, on the suite's heaviest
	// workload by dynamic instruction count (sort, Table 4) and the
	// classic light one (wc) — the PR-over-PR speedup headline.
	for _, name := range []string{"sort", "wc"} {
		front, w, err := frontend(name)
		if err != nil {
			return err
		}
		input := w.Test()
		code, err := interp.Decode(front.Prog)
		if err != nil {
			return err
		}
		record("Interp/"+name+"/fast", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m := &interp.FastMachine{Code: code, Input: input}
			if _, err := m.Run(); err != nil { // warm-up sizes the arenas
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		// The closure-compiled engine on the same decoded code. The
		// warm-up run also compiles the closure graph, so the loop times
		// steady-state execution — the fast vs closure pair within one
		// document is the dispatch-elimination speedup claim.
		record("Interp/"+name+"/closure", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m := &interp.ClosureMachine{Code: code, Input: input}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		record("Interp/"+name+"/reference", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := &interp.Machine{Prog: front.Prog, Input: input}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	front, w, err := frontend("wc")
	if err != nil {
		return err
	}
	input := w.Test()

	// The staged-pipeline headline: a cold build pays frontend +
	// detection + training + finalize; a build over a prebuilt frontend
	// and training product pays only finalize. The ratio is what the
	// engine's stage memos save on every Transform variant after the
	// first.
	opts := pipeline.Options{Switch: lower.SetI, Optimize: true}
	train := w.Train()
	record("Build/wc/cold", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Build(w.Source, train, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	wcFront, err := pipeline.BuildFrontend(w.Source, opts.Frontend())
	if err != nil {
		return err
	}
	wcTrained, err := pipeline.TrainStage(wcFront, train, opts.Detection())
	if err != nil {
		return err
	}
	record("Build/wc/staged-warm", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.FinalizeStages(wcFront, wcTrained, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The training stage alone, on a prebuilt frontend: detection,
	// instrumentation and the training run with its profile hook.
	record("Train/wc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.TrainStage(wcFront, train, opts.Detection()); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// A cold suite on a fresh engine at one job: the path the repository
	// benchmark's paper-suite times.
	var suite []workload.Workload
	for _, sw := range workload.All() {
		if sw.Name == "wc" || sw.Name == "sort" || sw.Name == "lex" {
			suite = append(suite, sw)
		}
	}
	record("Suite/cold-j1", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bench.NewEngine(1, nil).SuiteOf(context.Background(), suite); err != nil {
				b.Fatal(err)
			}
		}
	}))

	record("Decode/wc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interp.Decode(front.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// End-to-end measurement, decode + compile included each iteration:
	// sim.Run on its default closure engine against the same run pinned
	// to the fast engine.
	fast := sim.Options{Engine: sim.EngineFast}
	record("SimWithPredictors/wc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(front.Prog, input, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	record("SimWithPredictors/wc-fast", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWith(front.Prog, input, nil, fast); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The same end-to-end pair on the suite's heaviest workload, where
	// execution (not the predictor bank) dominates the measurement.
	sortFront, sortW, err := frontend("sort")
	if err != nil {
		return err
	}
	sortInput := sortW.Test()
	record("SimWithPredictors/sort", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sortFront.Prog, sortInput, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	record("SimWithPredictors/sort-fast", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWith(sortFront.Prog, sortInput, nil, fast); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Table-6 battery on a synthetic stream: the vectorized bank versus
	// the 14-Bimodal fan-out it replaced. Same stream as the go test
	// benchmark (BenchmarkPredictorBattery).
	const streamLen = 4096
	ids := make([]int, streamLen)
	taken := make([]bool, streamLen)
	r := uint64(12345)
	for i := range ids {
		r = r*6364136223846793005 + 1442695040888963407
		ids[i] = int(r>>33) % 200
		taken[i] = r>>62&1 == 0
	}
	record("PredictorBattery/bank", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bank := predictor.NewTable6Bank()
		for i := 0; i < b.N; i++ {
			bank.Observe(ids[i%streamLen], taken[i%streamLen])
		}
	}))
	record("PredictorBattery/bimodals", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		preds := sim.PredictorSweep()
		for i := 0; i < b.N; i++ {
			for _, p := range preds {
				p.Observe(ids[i%streamLen], taken[i%streamLen])
			}
		}
	}))
	// The battery on a real stream: grep's test run, 31 branch IDs, the
	// range every roster program's stream stays near.
	grepIDs, grepTaken, err := grepBranchStream()
	if err != nil {
		return err
	}
	record("PredictorBattery/roster", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bank := predictor.NewTable6Bank()
		for i := 0; i < b.N; i++ {
			bank.Observe(grepIDs[i%len(grepIDs)], grepTaken[i%len(grepIDs)])
		}
	}))
	// The same stream as sim.Run feeds it: encoded events replayed in
	// interp.BranchChunk-event chunks. Still ns per event.
	grepEvents := encodeBranches(grepIDs, grepTaken)
	record("PredictorBattery/roster-replay", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		replayChunks(predictor.NewTable6Bank(), grepEvents, b.N)
	}))

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
