package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/cminus"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// BaseOptions is the standard evaluation configuration for a heuristic
// set — what every table and figure of the paper's evaluation uses.
func BaseOptions(set lower.HeuristicSet) pipeline.Options {
	return pipeline.Options{Switch: set, Optimize: true}
}

// EngineStats summarizes an engine's work: jobs built and shared, the
// disk tier's hits and misses, and each stage's runs and reuses. It is
// the serializable store.TierStats, so the -json dump carries it.
type EngineStats = store.TierStats

// Engine runs build+measure jobs on a bounded worker pool. A job the
// disk tier does not serve runs the paper's Figure 2 scheme in five
// content-keyed stages, each memoized in one memo instance, so a stage
// runs once for every distinct key however many jobs need it:
//
//   - checked: parse and semantic analysis, by source;
//   - fronts: lowering and optimization, by source, the switch plan
//     (lower.Plan) and Optimize;
//   - trains: detection and the training run, by frontend digest,
//     detection options and training input;
//   - baselines: the baseline measurement, by frontend digest and test
//     input;
//   - runs: finalize and the reordered measurement, by frontend digest,
//     every option but Switch, and both inputs.
//
// The heuristic sets differ only in switch lowering, so sets that give a
// program's switches the same translations share its frontend, and a
// job whose program another job measured on the same inputs and options
// gets that run relabelled. A job's baseline measurement runs on its own
// goroutine beside its training, finalize and reordered measurement,
// outside the worker pool. An Engine is safe for concurrent use.
type Engine struct {
	jobs     int
	progress io.Writer
	sem      chan struct{}
	disk     *store.Store // optional disk tier; nil means memory-only

	// Measure selects the execution engine of every measurement and
	// training run (`brbench -engine`). Set it before the first Get;
	// results are identical for any value, so stored entries stay valid
	// across settings.
	Measure sim.Options

	checked   memo[string, *cminus.Info]
	fronts    memo[frontKey, *pipeline.FrontendProduct]
	trains    memo[trainKey, *pipeline.TrainProduct]
	baselines memo[[32]byte, *sim.Measurement]
	runs      memo[runKey, *ProgramRun]

	mu    sync.Mutex  // guards stats and progress writes
	stats EngineStats // the disk and sampled-training counters
}

// frontKey, trainKey and runKey are the stage keys beside the input
// bytes: the frontend reads no input, training reads the training
// input, and the run reads both. A frontend reads the heuristic set only
// through the plan, so frontKey holds the plan instead of the set.
type frontKey struct {
	src      string
	plan     lower.SwitchPlan
	optimize bool
}

type trainKey struct {
	digest [32]byte
	opts   pipeline.DetectOptions
}

type runKey struct {
	digest [32]byte
	opts   pipeline.Options // Switch zeroed
}

// NewEngine returns an engine running at most jobs builds concurrently
// (GOMAXPROCS when jobs <= 0). Progress lines go to progress when
// non-nil; their order depends on scheduling, so pipe them to a log
// destination, not into table output.
func NewEngine(jobs int, progress io.Writer) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Engine{jobs: jobs, progress: progress, sem: make(chan struct{}, jobs)}
}

// Jobs reports the worker-pool bound.
func (e *Engine) Jobs() int { return e.jobs }

// UseStore attaches a disk store as a cache tier in front of the build:
// every job probes the store before building, and every fresh build is
// written back. Attach it before the first Get.
func (e *Engine) UseStore(s *store.Store) { e.disk = s }

// Stats returns a snapshot of the counters. Every job the disk tier did
// not serve looks up its frontend once, so the frontend lookups are the
// builds, and the runs reused are the shared builds.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.FrontendRuns, s.FrontendHits = e.fronts.counts()
	s.TrainRuns, s.TrainHits = e.trains.counts()
	s.BaselineRuns, s.BaselineHits = e.baselines.counts()
	_, s.Shared = e.runs.counts()
	s.Builds = s.FrontendRuns + s.FrontendHits
	return s
}

func (e *Engine) logf(format string, args ...interface{}) {
	if e.progress == nil {
		return
	}
	e.mu.Lock()
	fmt.Fprintf(e.progress, format, args...)
	e.mu.Unlock()
}

// Get returns the run of workload w under opts: from the disk tier when
// it holds one, else built through the stage memos. Concurrent and
// repeated calls share every stage they have in common. Errors name the
// job, whichever job's stage failed.
func (e *Engine) Get(ctx context.Context, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	// Disk tier: a stored result skips the build entirely (and the
	// worker pool — reading an entry is cheap). Anything unusable is a
	// miss; Invalid is counted separately so invalidations are visible.
	var fp string
	if e.disk != nil {
		fp = store.Fingerprint(w.Source, TrainInput(w, opts), w.Test(), opts)
		rec, st := e.disk.Get(fp)
		if st == store.Hit {
			run, err := RunFromRecord(rec, w)
			if err == nil {
				e.mu.Lock()
				e.stats.DiskHits++
				e.mu.Unlock()
				e.logf("disk hit %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
				return run, nil
			}
			// Decoded but would not reconstitute: as good as corrupt.
			st = store.Invalid
		}
		e.mu.Lock()
		if st == store.Invalid {
			e.stats.DiskInvalid++
		} else {
			e.stats.DiskMisses++
		}
		e.mu.Unlock()
	}

	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	e.logf("building %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
	run, err := e.build(ctx, w, opts)
	if err != nil {
		return nil, fmt.Errorf("%s (set %v): %w", w.Name, opts.Switch, err)
	}
	if e.disk != nil {
		// A write failure costs only the cache entry, not the run.
		if perr := e.disk.Put(fp, run.Record()); perr != nil {
			e.logf("store write failed: %v\n", perr)
		}
	}
	return run, nil
}

// acquire takes a worker slot, failing if ctx ends first.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-e.sem
		return err
	}
	return nil
}

// build produces the run of a job the disk tier did not serve. The
// caller holds a worker slot; build releases it. The job's frontend
// comes first: when it lowers to a program that another job has
// measured, or is measuring, on the same inputs under the same options
// but Switch, the job gives up its slot, waits, and is served by that
// run relabelled. Everything after the frontend is deterministic in its
// key, so the shared run is exactly the one a fresh build would produce.
func (e *Engine) build(ctx context.Context, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	front, err := e.frontend(w.Source, opts.Frontend())
	if err != nil {
		<-e.sem
		return nil, err
	}
	train, test := TrainInput(w, opts), w.Test()
	key := runKey{front.Digest, opts}
	key.opts.Switch = 0
	s, owner := e.runs.claim(key, train, test)
	if owner {
		s.fill(e.measure(front, w, opts, train, test))
		<-e.sem
		return s.wait()
	}
	<-e.sem
	select {
	case <-s.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.val.relabel(w, opts, front.SwitchKinds), nil
}

// frontend returns the stage-1 product of src under fo: the checked
// program is shared by every job of src, and the lowered one by every
// job whose set gives src's switches the same plan.
func (e *Engine) frontend(src string, fo pipeline.FrontendOptions) (*pipeline.FrontendProduct, error) {
	info, err := e.checked.get(src, func() (*cminus.Info, error) {
		return pipeline.Check(src)
	})
	if err != nil {
		return nil, err
	}
	return e.fronts.get(frontKey{src, lower.Plan(info, fo.Switch), fo.Optimize}, func() (*pipeline.FrontendProduct, error) {
		return pipeline.LowerChecked(info, fo)
	})
}

// measure runs a job whose run no other job owns: start the baseline
// measurement (or take the one another job started), train, finalize
// and measure the reordered program. It returns only after the baseline
// measurement has ended, on every path.
func (e *Engine) measure(front *pipeline.FrontendProduct, w workload.Workload, opts pipeline.Options, train, test []byte) (*ProgramRun, error) {
	bl, owner := e.baselines.claim(front.Digest, test)
	if owner {
		// front.Prog is immutable, so the measurement reads it in place.
		measureBaseline(bl, front.Prog, test, e.Measure)
	}
	d := opts.Detection()
	tp, err := e.trains.get(trainKey{front.Digest, d}, func() (*pipeline.TrainProduct, error) {
		if d.Profile.Sampling() {
			e.mu.Lock()
			e.stats.SampledTrainRuns++
			e.mu.Unlock()
		}
		return pipeline.TrainStageWith(front, train, d, e.Measure.Engine)
	}, train)
	var b *pipeline.BuildResult
	if err == nil {
		b, err = pipeline.FinalizeStages(front, tp, opts)
	}
	if err != nil {
		<-bl.done
		return nil, err
	}
	return measureBuild(w, opts, b, bl, test, e.Measure)
}

// optsSuffix labels non-default configurations in progress output.
func optsSuffix(o pipeline.Options) string {
	var parts []string
	if o.CommonSuccessor {
		parts = append(parts, "+common-succ")
	}
	if o.Transform.NoBoundOrder {
		parts = append(parts, "no-bound-order")
	}
	if o.Transform.NoCmpReuse {
		parts = append(parts, "no-cmp-reuse")
	}
	if o.Transform.NoTailDup {
		parts = append(parts, "no-tail-dup")
	}
	if o.Profile.Sampling() {
		parts = append(parts, fmt.Sprintf("%s/%d", o.Profile.Mode, o.Profile.Rate))
	}
	if o.Profile.Drift != profile.DriftCross {
		parts = append(parts, o.Profile.Drift.String())
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ",") + "]"
}

// gather runs fn for every index of an n-element job list on the engine's
// pool and waits for all of them. The first non-cancellation error wins
// and cancels the remaining jobs; results are for the caller to place by
// index, so aggregation order never depends on completion order.
func (e *Engine) gather(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(ctx, i); err != nil {
				mu.Lock()
				if firstErr == nil && !errors.Is(err, context.Canceled) {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// SuiteOf builds and measures the given workloads under every heuristic
// set. Results are ordered exactly as ws regardless of which build
// finishes first, so rendered tables are byte-identical across -j values.
func (e *Engine) SuiteOf(ctx context.Context, ws []workload.Workload) (*Suite, error) {
	runs, err := e.RunJobs(ctx, SuiteJobs(ws))
	if err != nil {
		return nil, err
	}
	s := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for si, set := range Sets() {
		s.Runs[set] = runs[si*len(ws) : (si+1)*len(ws)]
	}
	return s, nil
}
