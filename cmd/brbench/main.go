// Command brbench regenerates the paper's evaluation. With no flags it
// runs the full suite (17 workloads × 3 heuristic sets) and prints every
// table and figure; -table and -figure select individual experiments.
// Builds and measurements run on a bounded worker pool (-j, default
// GOMAXPROCS) and are memoized, so the full suite compiles each
// (workload, heuristic set) pair exactly once and every table and figure
// renders from the shared cache; output is byte-identical for any -j.
//
// With -cache-dir, results also persist in a content-addressed on-disk
// store, so a second invocation over unchanged inputs executes zero
// build+measure jobs. The job matrix shards across machines: -shard i/n
// runs one deterministic partition and -export writes its measurements;
// -merge loads exported shards and renders the full tables byte-identical
// to a single-process run. Both work for -ablation too.
//
//	brbench                 # everything
//	brbench -j 4            # same, at most 4 concurrent builds
//	brbench -table 4        # dynamic frequency measurements
//	brbench -figure 13      # sequence lengths under Heuristic Set III
//	brbench -workloads wc,sort -table 8   # a subset of the roster
//	brbench -cache-dir ~/.cache/brbench   # warm-start later runs
//	brbench -cache-dir D -cache-gc 720h   # evict month-old entries first
//	brbench -shard 0/2 -export s0.json    # machine A's half of the matrix
//	brbench -shard 1/2 -export s1.json    # machine B's half
//	brbench -merge s0.json,s1.json        # full tables from both shards
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
	"sort"
	"strings"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can assert the
// parallel engine's output byte-for-byte against the serial one, and the
// shard/merge path against the single-process one.
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
		profBias  = fs.Uint64("profile-bias", 0, "fault injection for -profile-study: corrupt every sampled sequence's first arm count by this much")
		profMerge = fs.Bool("profile-merge", false, "fold every training run into a persistent merged-profile record and train from the decayed fold (needs -cache-dir)")
		quiet     = fs.Bool("q", false, "suppress progress output and the timing summary")
		jobs      = fs.Int("j", 0, "max concurrent build+measure jobs (<=0 means GOMAXPROCS)")
		workloads = fs.String("workloads", "", "comma-separated workload subset (default: all 17)")
		cacheDir  = fs.String("cache-dir", "", "persist build+measure results in this directory")
		shardFlag = fs.String("shard", "", "run only partition i of n of the job matrix, written i/n (requires -export)")
		export    = fs.String("export", "", "write the run's measurements to this file instead of rendering tables")
		merge     = fs.String("merge", "", "comma-separated exported shard files to load before rendering")
		jsonOut   = fs.String("json", "", "also write every measured run to this file as JSON")
		cacheGC   = fs.Duration("cache-gc", 0, "before running, evict -cache-dir entries older than this age")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		noFuse    = fs.Bool("no-fuse", false, "measure on the unfused decode (superinstructions off) — a differential-debugging escape hatch; results are byte-identical, only speed changes")
		engName   = fs.String("engine", "closure", "execution backend for measurements and training runs: closure, fast, or reference — results are byte-identical, only speed changes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
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

	shardIdx, shardN, err := parseShard(*shardFlag)
	if err != nil {
		return fail(err)
	}
	measureEngine, err := sim.ParseEngine(*engName)
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
	case shardN > 0 && *export == "":
		return fail(fmt.Errorf("-shard runs a partial job matrix, which cannot render tables: add -export FILE"))
	case *merge != "" && (*export != "" || shardN > 0):
		return fail(fmt.Errorf("-merge renders from already-exported shards; it cannot be combined with -shard/-export"))
	case *export != "" && (*table != 0 || *figure != 0):
		return fail(fmt.Errorf("-export serializes measurements and renders nothing; drop -table/-figure"))
	case *ablation && *jsonOut != "":
		return fail(fmt.Errorf("-ablation renders no suite to dump; drop -json"))
	case *ablation && (*table != 0 || *figure != 0):
		return fail(fmt.Errorf("-ablation renders its own table; drop -table/-figure"))
	case (*table == 2 || *table == 3) && (*jsonOut != "" || *merge != "" || *cacheGC != 0):
		return fail(fmt.Errorf("table %d is static and measures nothing; drop -json/-merge/-cache-gc", *table))
	case *cacheGC != 0 && *cacheDir == "":
		return fail(fmt.Errorf("-cache-gc collects the local store; add -cache-dir DIR"))
	case *cacheGC < 0:
		return fail(fmt.Errorf("-cache-gc needs a positive age, got %v", *cacheGC))
	case *profStudy && (*ablation || *table != 0 || *figure != 0 || *jsonOut != ""):
		return fail(fmt.Errorf("-profile-study renders its own table; drop -ablation/-table/-figure/-json"))
	case *profStudy && *profMerge:
		return fail(fmt.Errorf("-profile-study scores fresh training runs; -profile-merge would make its table depend on store history"))
	case !*profStudy && (*profRates != "1,8,64,512" || *profSeed != 1 || *profBias != 0):
		return fail(fmt.Errorf("-profile-rates, -profile-seed and -profile-bias configure the study; add -profile-study"))
	case *profMerge && *cacheDir == "":
		return fail(fmt.Errorf("-profile-merge persists profiles across runs; add -cache-dir DIR"))
	}
	var rates []int
	if *profStudy {
		if rates, err = parseRates(*profRates); err != nil {
			return fail(err)
		}
	}

	names, ws, err := selectWorkloads(*workloads)
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

	// -profile-merge is a cross-cutting switch: every enumerated job's
	// training runs in merge mode, whichever path enumerates them.
	var mod func(pipeline.Options) pipeline.Options
	if *profMerge {
		mod = func(o pipeline.Options) pipeline.Options {
			o.Profile.Merge = true
			return o
		}
	}

	var progress io.Writer = stderr
	if *quiet {
		progress = nil
	}
	engine := bench.NewEngine(*jobs, progress)
	engine.SetMeasure(sim.Options{NoFuse: *noFuse, Engine: measureEngine})
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
	var shardStats *store.TierStats // cache activity totalled from -merge inputs
	defer func() {
		if !*quiet {
			st := engine.Stats()
			fmt.Fprintf(stderr, "brbench: %d builds", st.Builds)
			if st.Shared > 0 {
				fmt.Fprintf(stderr, ", %d shared", st.Shared)
			}
			fmt.Fprintf(stderr, ", %d cache hits", st.Hits)
			if st.Seeded > 0 {
				fmt.Fprintf(stderr, ", %d seeded", st.Seeded)
			}
			if *cacheDir != "" {
				fmt.Fprintf(stderr, ", %d disk hits, %d disk misses, %d disk invalidated",
					st.DiskHits, st.DiskMisses, st.DiskInvalid)
			}
			if shardStats != nil {
				fmt.Fprintf(stderr, "; merged shards: %d builds, %d disk hits",
					shardStats.Builds, shardStats.DiskHits)
			}
			fmt.Fprintf(stderr, ", %.2fs elapsed (-j %d)\n", time.Since(start).Seconds(), engine.Jobs())
			if st.FrontendRuns+st.FrontendHits+st.TrainRuns+st.TrainHits > 0 {
				fmt.Fprintf(stderr, "brbench: stages: %d frontend runs (%d reused), %d training runs (%d reused",
					st.FrontendRuns, st.FrontendHits, st.TrainRuns, st.TrainHits)
				if st.ProfileHits > 0 {
					fmt.Fprintf(stderr, ", %d from store", st.ProfileHits)
				}
				fmt.Fprintf(stderr, ")")
				if st.SampledTrainRuns > 0 {
					fmt.Fprintf(stderr, ", %d sampled training runs", st.SampledTrainRuns)
				}
				if st.ProfileMergeHits > 0 {
					fmt.Fprintf(stderr, ", %d merged-profile reuses", st.ProfileMergeHits)
				}
				fmt.Fprintf(stderr, "\n")
			}
			if st.DecodedOps > 0 {
				fmt.Fprintf(stderr, "brbench: superinstructions: %d fused sites absorbing %d of %d decoded ops (%.1f%% static coverage) across fresh builds\n",
					st.FusedSites, st.FusedOps, st.DecodedOps, 100*float64(st.FusedOps)/float64(st.DecodedOps))
			}
			if len(st.BuildSeconds) > 0 {
				names := make([]string, 0, len(st.BuildSeconds))
				total := 0.0
				for name, sec := range st.BuildSeconds {
					names = append(names, name)
					total += sec
				}
				sort.Strings(names)
				fmt.Fprintf(stderr, "brbench: build+measure wall-clock:")
				for i, name := range names {
					sep := " "
					if i > 0 {
						sep = ", "
					}
					fmt.Fprintf(stderr, "%s%s %.2fs", sep, name, st.BuildSeconds[name])
				}
				fmt.Fprintf(stderr, " (total %.2fs)\n", total)
			}
		}
	}()

	// exportRuns measures jobList (or its -shard partition) and writes
	// the records plus this engine's cache counters, so a later -merge
	// can account for every shard's activity.
	exportRuns := func(jobList []bench.Job) int {
		if shardN > 0 {
			jobList = bench.ShardJobs(jobList, shardIdx, shardN)
		}
		runs, err := engine.RunJobs(ctx, jobList)
		if err != nil {
			return fail(err)
		}
		st := engine.Stats()
		if err := writeRecords(*export, bench.Records(runs), &st); err != nil {
			return fail(err)
		}
		return 0
	}

	if *profStudy {
		if *export != "" {
			return exportRuns(bench.ProfileStudyJobs(ws, rates, *profSeed, *profBias))
		}
		if *merge != "" {
			if shardStats, err = loadShards(engine, *merge); err != nil {
				return fail(err)
			}
		}
		rows, err := bench.RunProfileStudyWith(ctx, engine, ws, rates, *profSeed, *profBias)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, bench.ProfileStudyTable(rows))
		return 0
	}

	if *ablation {
		if *export != "" {
			return exportRuns(bench.ModJobs(bench.AblationJobs(lower.SetIII, ws), mod))
		}
		if *merge != "" {
			if shardStats, err = loadShards(engine, *merge); err != nil {
				return fail(err)
			}
		}
		rows, err := bench.RunAblationOpts(ctx, engine, lower.SetIII, names, mod)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, bench.AblationTable(lower.SetIII, rows))
		return 0
	}

	if *export != "" {
		return exportRuns(bench.ModJobs(bench.SuiteJobs(ws), mod))
	}

	if *merge != "" {
		if shardStats, err = loadShards(engine, *merge); err != nil {
			return fail(err)
		}
	}

	suite, err := engine.SuiteOfOpts(ctx, ws, mod)
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

// parseShard parses "-shard i/n". shardN is 0 when the flag is unset.
func parseShard(s string) (idx, n int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &idx, &n); err != nil || fmt.Sprintf("%d/%d", idx, n) != s {
		return 0, 0, fmt.Errorf("-shard must be i/n (e.g. 0/2), got %q", s)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("-shard %q out of range: need 0 <= i < n", s)
	}
	return idx, n, nil
}

// loadShards seeds the engine's cache from every exported shard file, so
// the suite renders without rebuilding anything the shards cover. It
// returns the shards' cache counters totalled together — nil when no
// shard carried stats — so the merged summary accounts for every
// machine's activity, not just this one's.
func loadShards(engine *bench.Engine, files string) (*store.TierStats, error) {
	var total store.TierStats
	haveStats := false
	for _, path := range strings.Split(files, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, stats, err := store.ReadExport(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if stats != nil {
			total.Add(*stats)
			haveStats = true
		}
		for _, rec := range recs {
			w, ok := workload.Named(rec.Workload)
			if !ok {
				return nil, fmt.Errorf("%s: unknown workload %q", path, rec.Workload)
			}
			run, err := bench.RunFromRecord(rec, w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			engine.Seed(run)
		}
	}
	if !haveStats {
		return nil, nil
	}
	return &total, nil
}

// writeRecords dumps records (and the engine's cache counters) to path
// in the export/-json format.
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
// roster (nil names, so the ablation's default applies too). An unknown
// name fails listing the valid roster, so a typo is self-correcting.
func selectWorkloads(flagVal string) ([]string, []workload.Workload, error) {
	if flagVal == "" {
		return nil, workload.All(), nil
	}
	var names []string
	var ws []workload.Workload
	for _, n := range strings.Split(flagVal, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		w, ok := workload.Named(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q; valid workloads: %s", n, rosterNames())
		}
		names = append(names, n)
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, nil, fmt.Errorf("-workloads selected nothing")
	}
	return names, ws, nil
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
