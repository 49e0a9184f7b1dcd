// Command benchmark measures the branch-reordering system end to end on
// four workloads and, with -trace 1, layer by layer. run.sh builds it
// from the checkout it sits in and runs it from the repository root:
//
//	bash benchmark/run.sh                                   # all four workloads
//	bash benchmark/run.sh -workload compile -seed 3 -seconds 20 -trace 0
//	bash benchmark/run.sh -workload paper-suite -trace 1 -spans spans.json
//	bash benchmark/run.sh -workload compile -json a.jsonl   # append the result
//	bash benchmark/run.sh -compare a.jsonl -- b.jsonl
//
// A single-workload run prints its metrics by name and ends with one JSON
// line holding correct, attempted, failed and metrics: the end-to-end
// metrics of BENCHMARK.json, or with -trace 1 its per-layer metrics. It
// exits nonzero when an op fails or an output is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = time.Second // keep setting up until this much has been timed
)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: paper-suite, compile, measure-long, suite-warm or all")
	seed := fs.Uint64("seed", 1, "input seed; 0 runs the roster's own inputs")
	seconds := fs.Float64("seconds", 20, "measure for this long, then finish the pass under way; 0 runs one pass")
	trace := fs.Int("trace", 0, "1 replays each op with a span per layer call and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write every span to this JSON file")
	jsonOut := fs.String("json", "", "append the result document to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare result files: -compare A.jsonl... -- B.jsonl...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-json FILE]")
		return 2
	}
	if *name == "all" {
		if *spans != "" {
			fmt.Fprintln(stderr, "-spans needs a single -workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	if lookup(*name) == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: minSetups, golden: "results.txt"}
	rep := run(cfg)
	if rep.attempted == 0 {
		fmt.Fprintf(stderr, "%s: %v\n", *name, rep.err)
		return 1
	}
	if rep.err != nil {
		fmt.Fprintf(stderr, "%s: FAILED: %v\n", *name, rep.err)
	}
	res := rep.result(cfg.trace)
	fmt.Fprintf(stdout, "%s seed %d: %d passes, %d ops, %d failed\n", *name, *seed, rep.passes, rep.attempted, rep.failed)
	if cfg.trace {
		rep.printLayers(stdout)
	} else {
		rep.e2e.print(stdout)
	}
	if *spans != "" {
		if err := writeJSON(*spans, rep.spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := appendDoc(*jsonOut, document{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: thisHost(), Result: res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so set-up
// time and peak memory are each workload's alone.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func lookup(name string) func(seed uint64) (runner, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup
		}
	}
	return nil
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // fewest set-ups to time
	golden   string // results.txt
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricList keeps metrics in the order they were added.
type metricList struct {
	names []string
	m     map[string]metric
}

func (l *metricList) add(name string, v float64, unit string) {
	if l.m == nil {
		l.m = map[string]metric{}
	}
	l.names = append(l.names, name)
	l.m[name] = metric{v, unit}
}

func (l *metricList) print(w io.Writer) {
	for _, n := range l.names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, l.m[n].Value, l.m[n].Unit)
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	passes, attempted, failed int
	e2e                       metricList
	layers                    metricList // per-layer metrics, traced runs only
	selfMs                    map[string]float64
	spans                     []span
	err                       error // the first failed op or check
}

func (r *report) result(traced bool) result {
	m := r.e2e.m
	if traced {
		m = r.layers.m
	}
	return result{Correct: r.err == nil && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// phase is one stretch of timed passes.
type phase struct {
	loop
	passes   []float64 // seconds each
	gcCPU    float64   // seconds
	alloc    uint64    // bytes
	gcCycles uint32
	peakRSS  float64 // MB, the process's high-water mark so far
}

// timed runs whole passes until seconds have elapsed, at least one.
func timed(r runner, seconds float64, tr *tracer) (phase, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	p := phase{loop: loop{tr: tr}}
	start := time.Now()
	var err error
	for err == nil {
		ps := time.Now()
		err = r.pass(&p.loop)
		p.passes = append(p.passes, time.Since(ps).Seconds())
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	p.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.peakRSS = peakRSSMB()
	return p, err
}

// bestOps returns each op's fastest time over the phase's passes, in ms.
// Every pass repeats the same ops in the same order. Other work on the
// host only ever adds time, and on a shared host it comes in stretches
// of seconds that can slow an op twofold, so the fastest repeat is the
// steadiest estimate of what an op costs.
func (p *phase) bestOps() []float64 {
	best := make([]float64, len(p.ops)/len(p.passes))
	for i, d := range p.ops[:len(best)*len(p.passes)] {
		ms := float64(d) / 1e6
		if k := i % len(best); i < len(best) || ms < best[k] {
			best[k] = ms
		}
	}
	return best
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// run sets the workload up, measures it and checks its outputs. A traced
// run spends a third of its time on production passes, which give the
// tracing overhead, engine counters and runtime figures, and the rest on
// traced passes.
func run(cfg config) (rep report) {
	setup := lookup(cfg.workload)
	var r runner
	var setups []float64
	var spent time.Duration
	for len(setups) < cfg.setups || (spent < setupBudget && len(setups) < maxSetups) {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = setup(cfg.seed); err != nil {
			rep.err = fmt.Errorf("set-up: %w", err)
			return rep
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer r.close()

	prodSeconds := cfg.seconds
	if cfg.trace {
		prodSeconds = cfg.seconds / 3
	}
	prod, err := timed(r, prodSeconds, nil)
	rep.passes, rep.attempted, rep.failed, rep.err = len(prod.passes), len(prod.ops), prod.failed, err
	var tr *tracer
	var traced phase
	if cfg.trace && err == nil {
		tr = newTracer()
		traced, err = timed(r, cfg.seconds-prodSeconds, tr)
		rep.passes += len(traced.passes)
		rep.attempted += len(traced.ops)
		rep.failed += traced.failed
		rep.err, rep.spans = err, tr.spans
	}
	var q quality
	if rep.err == nil {
		q, rep.err = r.check(&checker{seed: cfg.seed, goldenPath: cfg.golden, refs: map[string]outcome{}})
	}

	best := prod.bestOps()
	n := float64(len(prod.ops))
	e := &rep.e2e
	e.add("setup_s", quantile(setups, 0.5), "s")
	e.add("pass_s", sum(best)/1000, "s")
	e.add("op_ms_p50", quantile(best, 0.5), "ms")
	e.add("alloc_mb_per_op", float64(prod.alloc)/1e6/n, "MB")
	e.add("peak_rss_mb", prod.peakRSS, "MB")
	e.add("reord_insts_ratio", ratio(q.insts[0], q.insts[1]), "ratio")
	e.add("reord_cycles_ratio", ratio(q.cycles[0], q.cycles[1]), "ratio")
	e.add("reord_mispredicts_ratio", ratio(q.mispredicts[0], q.mispredicts[1]), "ratio")
	e.add("static_growth_ratio", ratio(uint64(q.static[0]), uint64(q.static[1])), "ratio")
	if tr != nil && len(traced.passes) > 0 {
		rep.addLayers(tr, traced, prod)
	}
	return rep
}

// addLayers derives the per-layer metrics. Self-time shares are of the
// traced passes' total wall time, so they and the unattributed share add
// up to 100; counts are per pass.
func (rep *report) addLayers(tr *tracer, traced, prod phase) {
	passes := float64(len(traced.passes))
	total := sum(traced.passes)
	self := tr.selfTimes()
	rep.selfMs = map[string]float64{}
	l := &rep.layers
	attributed := 0.0
	for _, name := range layers {
		sec := self[name].Seconds()
		attributed += sec
		rep.selfMs[name] = 1000 * sec / passes
		l.add(name+".self_pct", 100*sec/total, "%")
	}
	rep.selfMs["unattributed"] = 1000 * (total - attributed) / passes
	l.add("trace.unattributed_pct", 100*(total-attributed)/total, "%")
	tracedBest := sum(traced.bestOps())
	l.add("trace.pass_ms", tracedBest, "ms")
	l.add("trace.overhead_pct", 100*(tracedBest/sum(prod.bestOps())-1), "%")

	c := tr.counts
	for _, k := range []struct{ name, unit string }{
		{"cminus.src_kb", "KiB"}, {"lower.ir_insts", "count"}, {"opt.ir_insts", "count"},
		{"core.detect.seqs", "count"}, {"core.reorder.applied", "count"},
		{"interp.decode.ops", "count"}, {"interp.train.insts", "count"},
		{"interp.measure.insts", "count"}, {"interp.measure.branches", "count"},
		{"store.gets", "count"}, {"store.hits", "count"},
	} {
		l.add(k.name, c[k.name]/passes, k.unit)
	}
	l.add("core.reorder.applied_ratio", ratio(uint64(c["core.reorder.tried"]), uint64(c["core.reorder.applied"])), "ratio")
	l.add("interp.decode.fused_ratio", ratio(uint64(c["interp.decode.ops"]), uint64(c["interp.decode.fused_ops"])), "ratio")
	st := prod.engine
	l.add("bench.engine.builds", float64(st.Builds), "count")
	l.add("bench.engine.disk_hits", float64(st.DiskHits), "count")
	l.add("bench.engine.frontend_runs", float64(st.FrontendRuns), "count")
	l.add("bench.engine.train_runs", float64(st.TrainRuns), "count")
	prodPasses := float64(len(prod.passes))
	l.add("runtime.gc_cpu_ms", 1000*prod.gcCPU/prodPasses, "ms")
	l.add("runtime.gc_cycles", float64(prod.gcCycles)/prodPasses, "count")
	l.add("runtime.alloc_mb", float64(prod.alloc)/1e6/prodPasses, "MB")
}

// printLayers prints where a traced pass's time went, then the per-layer
// metrics.
func (rep *report) printLayers(w io.Writer) {
	fmt.Fprintf(w, "  %-16s %14s\n", "layer", "self ms/pass")
	sum := 0.0
	for _, name := range append(append([]string(nil), layers...), "unattributed") {
		sum += rep.selfMs[name]
		fmt.Fprintf(w, "  %-16s %14.3f\n", name, rep.selfMs[name])
	}
	fmt.Fprintf(w, "  %-16s %14.3f (mean traced pass)\n", "total", sum)
	for _, r := range []struct {
		what, count, layer string
		scale              float64
	}{
		{"interp.train Minsts/s", "interp.train.insts", "interp.train", 1e-3},
		{"interp.measure Minsts/s", "interp.measure.insts", "interp.measure", 1e-3},
		{"predictor events/us", "interp.measure.branches", "predictor", 1e-3},
	} {
		if ms := rep.selfMs[r.layer]; ms > 0 {
			fmt.Fprintf(w, "  %-28s %14.6g\n", r.what, r.scale*rep.layers.m[r.count].Value/ms)
		}
	}
	rep.layers.print(w)
}

func ratio(base, x uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(x) / float64(base)
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// document is one run's entry in a -json file.
type document struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func thisHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

func appendDoc(path string, d document) error {
	line, err := json.Marshal(d)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
