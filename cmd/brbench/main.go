// Command brbench regenerates the paper's evaluation. With no flags it
// runs the full suite (17 workloads × 3 heuristic sets) and prints every
// table and figure; -table and -figure select individual experiments.
// Builds and measurements run on a bounded worker pool (-j, default
// GOMAXPROCS) and every build stage is memoized by content, so the full
// suite compiles each (workload, heuristic set) pair exactly once and
// every table and figure renders from the same runs; output is
// byte-identical for any -j.
//
// With -cache-dir, results also persist in a content-addressed on-disk
// store, so a second invocation over unchanged inputs executes zero
// build+measure jobs. -json writes every measured run as JSON.
//
//	brbench                 # everything
//	brbench -j 4            # same, at most 4 concurrent builds
//	brbench -table 4        # dynamic frequency measurements
//	brbench -figure 13      # sequence lengths under Heuristic Set III
//	brbench -workloads wc,sort -table 8   # a subset of the roster
//	brbench -cache-dir ~/.cache/brbench   # warm-start later runs
//	brbench -cache-dir D -cache-gc 720h   # evict month-old entries first
//	brbench -json runs.json               # machine-readable measurements
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can assert the
// parallel engine's output byte-for-byte against the serial one.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("brbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.Int("table", 0, "render only this table (2-8)")
		figure    = fs.Int("figure", 0, "render only this figure (11-13)")
		ablation  = fs.Bool("ablation", false, "run the design-choice ablation study instead")
		profStudy = fs.Bool("profile-study", false, "run the profile-quality study (sampled profiles scored against exact ones, by sample rate and train/test drift) instead")
		profRates = fs.String("profile-rates", "1,8,64,512", "comma-separated sample rates for -profile-study (1 is the exact reference and must be present)")
		profSeed  = fs.Uint64("profile-seed", 1, "deterministic sampling seed for -profile-study")
		quiet     = fs.Bool("q", false, "suppress progress output and the timing summary")
		jobs      = fs.Int("j", 0, "max concurrent build+measure jobs (<=0 means GOMAXPROCS); each job's baseline measurement runs beside its training, outside this bound")
		workloads = fs.String("workloads", "", "comma-separated workload subset (default: all 17)")
		cacheDir  = fs.String("cache-dir", "", "persist build+measure results in this directory")
		jsonOut   = fs.String("json", "", "also write every measured run to this file as JSON")
		cacheGC   = fs.Duration("cache-gc", 0, "before running, evict -cache-dir entries older than this age")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		engName   = fs.String("engine", "closure", "execution backend for measurements and training runs: closure or reference — results are byte-identical, only speed changes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	given := map[string]bool{} // the flags named on the command line
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	fail := func(err error) int {
		fmt.Fprintln(stderr, "brbench:", err)
		return 1
	}

	// Profiling hooks for the perf workflow: the CPU profile covers the
	// whole run (builds and rendering), the heap profile is a snapshot
	// after a final GC, when only long-lived allocations remain.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "brbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "brbench:", err)
			}
			f.Close()
		}()
	}

	measureEngine, err := interp.ParseEngine(*engName)
	if err != nil {
		return fail(err)
	}
	switch {
	case *table != 0 && (*table < 2 || *table > 8):
		return fail(fmt.Errorf("no table %d (have 2-8)", *table))
	case *figure != 0 && (*figure < 11 || *figure > 13):
		return fail(fmt.Errorf("no figure %d (have 11-13)", *figure))
	case *table != 0 && *figure != 0:
		return fail(fmt.Errorf("-table and -figure each select one experiment; pick one"))
	case *ablation && *jsonOut != "":
		return fail(fmt.Errorf("-ablation renders no suite to dump; drop -json"))
	case *ablation && (*table != 0 || *figure != 0):
		return fail(fmt.Errorf("-ablation renders its own table; drop -table/-figure"))
	case (*table == 2 || *table == 3) && (*jsonOut != "" || *cacheGC != 0):
		return fail(fmt.Errorf("table %d is static and measures nothing; drop -json/-cache-gc", *table))
	case *cacheGC != 0 && *cacheDir == "":
		return fail(fmt.Errorf("-cache-gc collects the local store; add -cache-dir DIR"))
	case *cacheGC < 0:
		return fail(fmt.Errorf("-cache-gc needs a positive age, got %v", *cacheGC))
	case *profStudy && (*ablation || *table != 0 || *figure != 0 || *jsonOut != ""):
		return fail(fmt.Errorf("-profile-study renders its own table; drop -ablation/-table/-figure/-json"))
	case !*profStudy && (given["profile-rates"] || given["profile-seed"]):
		return fail(fmt.Errorf("-profile-rates and -profile-seed configure the study; add -profile-study"))
	}
	var rates []int
	if *profStudy {
		if rates, err = parseRates(*profRates); err != nil {
			return fail(err)
		}
	}

	ws, err := selectWorkloads(*workloads)
	if err != nil {
		return fail(err)
	}

	// Tables 2 and 3 need no measurements.
	switch *table {
	case 2:
		fmt.Fprint(stdout, bench.Table2())
		return 0
	case 3:
		fmt.Fprint(stdout, bench.Table3())
		return 0
	}

	var progress io.Writer = stderr
	if *quiet {
		progress = nil
	}
	engine := bench.NewEngine(*jobs, progress)
	engine.Measure = sim.Options{Engine: measureEngine}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			return fail(err)
		}
		if *cacheGC > 0 {
			res, err := st.GC(*cacheGC)
			if err != nil {
				return fail(err)
			}
			if !*quiet {
				fmt.Fprintf(stderr, "brbench: cache gc evicted %d of %d entries, %d bytes kept\n",
					res.Evicted, res.Scanned, res.Bytes)
			}
		}
		engine.UseStore(st)
	}
	start := time.Now()
	ctx := context.Background()
	defer func() {
		if !*quiet {
			st := engine.Stats()
			fmt.Fprintf(stderr, "brbench: %d builds", st.Builds)
			if st.Shared > 0 {
				fmt.Fprintf(stderr, ", %d shared", st.Shared)
			}
			if *cacheDir != "" {
				fmt.Fprintf(stderr, ", %d disk hits, %d disk misses, %d disk invalidated",
					st.DiskHits, st.DiskMisses, st.DiskInvalid)
			}
			fmt.Fprintf(stderr, ", %.2fs elapsed (-j %d)\n", time.Since(start).Seconds(), engine.Jobs())
			if st.Builds > 0 {
				fmt.Fprintf(stderr, "brbench: stages: %d frontend runs (%d reused), %d training runs (%d reused), %d baseline runs (%d reused)",
					st.FrontendRuns, st.FrontendHits, st.TrainRuns, st.TrainHits, st.BaselineRuns, st.BaselineHits)
				if st.SampledTrainRuns > 0 {
					fmt.Fprintf(stderr, ", %d sampled training runs", st.SampledTrainRuns)
				}
				fmt.Fprintf(stderr, "\n")
			}
		}
	}()

	if *profStudy {
		rows, err := bench.RunProfileStudyWith(ctx, engine, ws, rates, *profSeed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, bench.ProfileStudyTable(rows))
		return 0
	}

	if *ablation {
		rows, err := bench.RunAblationWith(ctx, engine, lower.SetIII, ws)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, bench.AblationTable(lower.SetIII, rows))
		return 0
	}

	suite, err := engine.SuiteOf(ctx, ws)
	if err != nil {
		return fail(err)
	}
	if *jsonOut != "" {
		st := engine.Stats()
		if err := writeRecords(*jsonOut, bench.Records(suite.AllRuns()), &st); err != nil {
			return fail(err)
		}
	}

	switch {
	case *table != 0:
		text, err := tableText(suite, *table)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, text)
	case *figure != 0:
		text, err := suite.Figure(*figure)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, text)
	default:
		fmt.Fprint(stdout, bench.Table2(), "\n")
		fmt.Fprint(stdout, bench.Table3(), "\n")
		for n := 4; n <= 8; n++ {
			text, _ := tableText(suite, n)
			fmt.Fprint(stdout, text, "\n")
		}
		for n := 11; n <= 13; n++ {
			text, _ := suite.Figure(n)
			fmt.Fprint(stdout, text, "\n")
		}
	}
	return 0
}

// parseRates parses the -profile-rates list.
func parseRates(s string) ([]int, error) {
	var rates []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var r int
		if _, err := fmt.Sscanf(part, "%d", &r); err != nil || fmt.Sprintf("%d", r) != part || r < 1 {
			return nil, fmt.Errorf("-profile-rates must be positive integers, got %q", part)
		}
		if seen[r] {
			return nil, fmt.Errorf("-profile-rates lists rate %d twice", r)
		}
		seen[r] = true
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-profile-rates selected nothing")
	}
	return rates, nil
}

// writeRecords dumps records (and the engine's cache counters) to path
// in the -json format.
func writeRecords(path string, recs []*store.Record, stats *store.TierStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := store.WriteExport(f, recs, stats)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// selectWorkloads resolves the -workloads flag: empty means the whole
// roster. An unknown name fails listing the valid roster, so a typo is
// self-correcting. A repeated name fails too: it would repeat rows and
// weight every average.
func selectWorkloads(flagVal string) ([]workload.Workload, error) {
	if flagVal == "" {
		return workload.All(), nil
	}
	var ws []workload.Workload
	for _, n := range strings.Split(flagVal, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		w, ok := workload.Named(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q; valid workloads: %s", n, rosterNames())
		}
		if slices.ContainsFunc(ws, func(o workload.Workload) bool { return o.Name == n }) {
			return nil, fmt.Errorf("-workloads lists %q twice", n)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("-workloads selected nothing")
	}
	return ws, nil
}

// rosterNames lists every workload name, comma-separated.
func rosterNames() string {
	var sb strings.Builder
	for i, w := range workload.All() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(w.Name)
	}
	return sb.String()
}

func tableText(s *bench.Suite, n int) (string, error) {
	switch n {
	case 2:
		return bench.Table2(), nil
	case 3:
		return bench.Table3(), nil
	case 4:
		return s.Table4(), nil
	case 5:
		return s.Table5(), nil
	case 6:
		return s.Table6(), nil
	case 7:
		return s.Table7(), nil
	case 8:
		return s.Table8(), nil
	default:
		return "", fmt.Errorf("no table %d (have 2-8)", n)
	}
}
