package branchreorder

// One benchmark per table and figure of the paper's evaluation. The
// expensive part — compiling and measuring 17 workloads under three
// switch heuristic sets — happens once in a shared fixture (built on
// bench's parallel, memoizing engine); each benchmark then regenerates
// its experiment from the measurements and reports the headline number
// as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. cmd/brbench prints the same tables in
// full.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = bench.NewEngine(0, nil).Suite(context.Background())
	})
	if suiteErr != nil {
		b.Fatalf("building suite: %v", suiteErr)
	}
	return suite
}

// avgPct extracts the suite-wide average instruction change for a set.
func avgPct(s *bench.Suite, set lower.HeuristicSet) float64 {
	var base, reord uint64
	for _, r := range s.Runs[set] {
		base += r.Base.Stats.Insts
		reord += r.Reord.Stats.Insts
	}
	return bench.PctChange(base, reord)
}

// BenchmarkTable3 regenerates the test-program roster (Table 3).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 regenerates the dynamic frequency measurements
// (Table 4), reporting the suite-wide instruction reduction per set.
func BenchmarkTable4(b *testing.B) {
	s := sharedSuite(b)
	for _, set := range bench.Sets() {
		set := set
		b.Run("Set"+set.String(), func(b *testing.B) {
			var text string
			for i := 0; i < b.N; i++ {
				text = s.Table4()
			}
			if !strings.Contains(text, "average") {
				b.Fatal("malformed table")
			}
			b.ReportMetric(avgPct(s, set), "insts_%delta")
		})
	}
}

// BenchmarkTable5 regenerates the (0,2)x2048 branch-prediction
// measurements (Table 5).
func BenchmarkTable5(b *testing.B) {
	s := sharedSuite(b)
	var text string
	for i := 0; i < b.N; i++ {
		text = s.Table5()
	}
	if !strings.Contains(text, "(0,2)") {
		b.Fatal("malformed table")
	}
	var m0, m1 uint64
	for _, r := range s.Runs[lower.SetII] {
		m0 += r.Base.Mispredicts["(0,2)x2048"]
		m1 += r.Reord.Mispredicts["(0,2)x2048"]
	}
	b.ReportMetric(bench.PctChange(m0, m1), "mispreds_%delta")
}

// BenchmarkTable6 regenerates the predictor sweep (Table 6).
func BenchmarkTable6(b *testing.B) {
	s := sharedSuite(b)
	var text string
	for i := 0; i < b.N; i++ {
		text = s.Table6()
	}
	if !strings.Contains(text, "2048") {
		b.Fatal("malformed table")
	}
}

// BenchmarkTable7 regenerates the modelled execution times (Table 7),
// reporting the Ultra's suite-wide cycle reduction.
func BenchmarkTable7(b *testing.B) {
	s := sharedSuite(b)
	var text string
	for i := 0; i < b.N; i++ {
		text = s.Table7()
	}
	if !strings.Contains(text, "Ultra") {
		b.Fatal("malformed table")
	}
	var c0, c1 uint64
	for _, r := range s.Runs[lower.SetII] {
		c0 += r.Base.Cycles["SPARC Ultra I"]
		c1 += r.Reord.Cycles["SPARC Ultra I"]
	}
	b.ReportMetric(bench.PctChange(c0, c1), "ultra_cycles_%delta")
}

// BenchmarkTable8 regenerates the static measurements (Table 8),
// reporting the suite-wide static code growth under Set I.
func BenchmarkTable8(b *testing.B) {
	s := sharedSuite(b)
	var text string
	for i := 0; i < b.N; i++ {
		text = s.Table8()
	}
	if !strings.Contains(text, "Seqs") {
		b.Fatal("malformed table")
	}
	var st0, st1 int64
	for _, r := range s.Runs[lower.SetI] {
		st0 += r.StaticBase
		st1 += r.StaticReord
	}
	b.ReportMetric(bench.PctChange(uint64(st0), uint64(st1)), "static_%delta")
}

// BenchmarkFigures regenerates the sequence-length histograms
// (Figures 11-13).
func BenchmarkFigures(b *testing.B) {
	s := sharedSuite(b)
	for _, n := range []int{11, 12, 13} {
		n := n
		b.Run(map[int]string{11: "Figure11_SetI", 12: "Figure12_SetII", 13: "Figure13_SetIII"}[n],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					text, err := s.Figure(n)
					if err != nil || !strings.Contains(text, "Sequence Length") {
						b.Fatalf("figure %d: %v", n, err)
					}
				}
			})
	}
}

// The remaining benchmarks time the pipeline's phases themselves.

func wcSource(b *testing.B) workload.Workload {
	b.Helper()
	w, ok := workload.Named("wc")
	if !ok {
		b.Fatal("wc workload missing")
	}
	return w
}

// BenchmarkCompile times the front end plus conventional optimizer: on
// wc under Set I, and once per (source, set) frontend of the suite's 51
// jobs, the frontend work of a cold suite without the engine's sharing.
func BenchmarkCompile(b *testing.B) {
	w := wcSource(b)
	b.Run("wc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roster", func(b *testing.B) {
		jobs := bench.SuiteJobs(workload.All())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := pipeline.Frontend(j.Workload.Source, j.Opts); err != nil {
					b.Fatalf("%s (set %v): %v", j.Workload.Name, j.Opts.Switch, err)
				}
			}
		}
	})
}

// BenchmarkBuildReordered times the full two-pass scheme (compile,
// detect, train, reorder) on the wc workload.
func BenchmarkBuildReordered(b *testing.B) {
	w := wcSource(b)
	train := w.Train()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Build(w.Source, train, pipeline.Options{Switch: lower.SetI, Optimize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild contrasts the monolithic pipeline with the staged one.
// cold builds from source every iteration — frontend, detection,
// training run, finalize. staged-warm finalizes a prebuilt frontend and
// training product, so each iteration pays only the finalize stage; the
// gap between the two is the work the engine's stage memos amortize
// across Transform variants. roster runs Build once for each of the
// suite's 51 jobs, as brcc would, with no sharing: the op of the
// benchmark's compile workload, 51 times over.
func BenchmarkBuild(b *testing.B) {
	w := wcSource(b)
	train := w.Train()
	opts := pipeline.Options{Switch: lower.SetI, Optimize: true}
	b.Run("wc/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Build(w.Source, train, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wc/staged-warm", func(b *testing.B) {
		b.ReportAllocs()
		front, err := pipeline.BuildFrontend(w.Source, opts.Frontend())
		if err != nil {
			b.Fatal(err)
		}
		tp, err := pipeline.TrainStage(front, train, opts.Detection())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.FinalizeStages(front, tp, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roster", func(b *testing.B) {
		jobs := bench.SuiteJobs(workload.All())
		inputs := make([][]byte, len(jobs))
		for i, j := range jobs {
			inputs[i] = bench.TrainInput(j.Workload, j.Opts)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, j := range jobs {
				if _, err := pipeline.Build(j.Workload.Source, inputs[k], j.Opts); err != nil {
					b.Fatalf("%s (set %v): %v", j.Workload.Name, j.Opts.Switch, err)
				}
			}
		}
	})
}

// BenchmarkInterp times raw, hook-free execution of optimized binaries
// on both engines: the closure engine (the measurement path) and the
// block-walking reference interpreter it is differentially tested
// against. sort is the suite's
// heaviest workload by dynamic instruction count (Table 4); wc is the
// classic light one.
func BenchmarkInterp(b *testing.B) {
	for _, name := range []string{"sort", "wc"} {
		w, ok := workload.Named(name)
		if !ok {
			b.Fatalf("%s workload missing", name)
		}
		front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
		if err != nil {
			b.Fatal(err)
		}
		input := w.Test()
		code, err := interp.Decode(front.Prog)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/closure", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			m := &interp.ClosureMachine{Code: code, Input: input}
			// Warm the machine's arenas (register window, frame stack,
			// data memory, output buffer) so their one-time growth does
			// not smear bytes/op over small b.N; steady state is
			// allocation-free. The warm-up run also compiles the closure
			// graph, so the timed loop measures pure execution.
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				m := &interp.Machine{Prog: front.Prog, Input: input}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode times the pre-decoding step the closure engine amortizes
// across runs.
func BenchmarkDecode(b *testing.B) {
	w := wcSource(b)
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := interp.Decode(front.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet times the disk-store reads a warm brbench -cache-dir
// suite makes: set-up fills a store with one cold suite, and each
// iteration gets the suite's 51 build entries back, each Get reading,
// decoding and verifying its own file. SetBytes counts the entry bytes
// read, as Put wrote them.
func BenchmarkStoreGet(b *testing.B) {
	disk, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := bench.NewEngine(1, nil)
	e.UseStore(disk)
	jobs := bench.SuiteJobs(workload.All())
	fps := make([]string, len(jobs))
	var size int64
	for i, j := range jobs {
		run, err := e.Get(context.Background(), j.Workload, j.Opts)
		if err != nil {
			b.Fatal(err)
		}
		fps[i] = store.Fingerprint(j.Workload.Source, bench.TrainInput(j.Workload, j.Opts), j.Workload.Test(), j.Opts)
		data, err := store.Encode(fps[i], run.Record())
		if err != nil {
			b.Fatal(err)
		}
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fp := range fps {
			if _, st := disk.Get(fp); st != store.Hit {
				b.Fatalf("Get %s: %v", fp, st)
			}
		}
	}
}

// BenchmarkSimWithPredictors times measurement with the full predictor
// battery attached, decode (and the closure compile) included each
// iteration: sim.Run on its default closure engine.
func BenchmarkSimWithPredictors(b *testing.B) {
	w := wcSource(b)
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	input := w.Test()
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(front.Prog, input, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredictorBattery times observing one branch stream with the
// whole Table-6 battery. bank and bimodals replay a synthetic 200-ID
// stream through the single-pass Bank and through the 14-Bimodal fan-out
// it replaced in sim.Run; roster replays the stream recorded from grep's
// test run, whose 31 branch IDs are the real range the bank sees, one
// Observe per event; roster-replay feeds the same stream to Replay in
// interp.BranchChunk-event chunks, the path sim.Run takes. Every variant
// reports ns per event.
func BenchmarkPredictorBattery(b *testing.B) {
	const streamLen = 4096
	ids := make([]int, streamLen)
	taken := make([]bool, streamLen)
	r := uint64(12345)
	for i := range ids {
		r = r*6364136223846793005 + 1442695040888963407
		ids[i] = int(r>>33) % 200
		taken[i] = r>>62&1 == 0
	}
	b.Run("bank", func(b *testing.B) {
		bank := predictor.NewTable6Bank()
		for i := 0; i < b.N; i++ {
			bank.Observe(ids[i%streamLen], taken[i%streamLen])
		}
	})
	b.Run("bimodals", func(b *testing.B) {
		preds := sim.PredictorSweep()
		for i := 0; i < b.N; i++ {
			for _, p := range preds {
				p.Observe(ids[i%streamLen], taken[i%streamLen])
			}
		}
	})
	grepIDs, grepTaken := grepBranchStream(b)
	b.Run("roster", func(b *testing.B) {
		bank := predictor.NewTable6Bank()
		for i := 0; i < b.N; i++ {
			bank.Observe(grepIDs[i%len(grepIDs)], grepTaken[i%len(grepIDs)])
		}
	})
	b.Run("roster-replay", func(b *testing.B) {
		events := encodeBranches(grepIDs, grepTaken)
		bank := predictor.NewTable6Bank()
		b.ResetTimer()
		replayChunks(bank, events, b.N)
	})
}

// encodeBranches packs a recorded stream into OnBranches events.
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

// grepBranchStream records every (branchID, taken) event of grep's test
// run.
func grepBranchStream(b *testing.B) ([]int, []bool) {
	b.Helper()
	w, ok := workload.Named("grep")
	if !ok {
		b.Fatal("grep workload missing")
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	code, err := interp.Decode(front.Prog)
	if err != nil {
		b.Fatal(err)
	}
	var ids []int
	var taken []bool
	m := &interp.ClosureMachine{Code: code, Input: w.Test(), OnBranch: func(id int, t bool) {
		ids = append(ids, id)
		taken = append(taken, t)
	}}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	if len(ids) == 0 {
		b.Fatal("grep executed no branches")
	}
	return ids, taken
}

// BenchmarkDetect times sequence detection over all workloads' optimized
// programs (detection mutates the program, so each iteration works on a
// fresh clone; the clone cost is part of what the second pass pays too).
func BenchmarkDetect(b *testing.B) {
	var progs []*ir.Program
	for _, w := range workload.All() {
		front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetIII, Optimize: true})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, front.Prog)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			core.Detect(ir.CloneProgram(p), 0)
		}
	}
}

// BenchmarkSelect times the Figure 8 ordering algorithm on synthetic
// sequences of growing length.
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		arms := make([]core.Arm, n)
		for i := range arms {
			arms[i] = core.Arm{
				R:      core.Range{Lo: int64(10 * i), Hi: int64(10*i + 5)},
				Target: i % 3,
				P:      1 / float64(n),
				C:      2,
			}
		}
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Select(arms)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation runs the design-choice ablation study (Section 7/8
// mechanisms and the Section 10 extension) on three representative
// workloads.
func BenchmarkAblation(b *testing.B) {
	var ws []workload.Workload
	for _, name := range []string{"wc", "ctags", "cpp"} {
		w, ok := workload.Named(name)
		if !ok {
			b.Fatalf("%s workload missing", name)
		}
		ws = append(ws, w)
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAblationWith(context.Background(), bench.NewEngine(0, nil), lower.SetIII, ws)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}
