package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// Key identifies one build+measure job: a workload compiled under one
// full pipeline configuration. pipeline.Options is comparable, so ablation
// variants and the Section 10 extension get distinct cache slots while the
// standard per-set builds are shared by every table and figure.
type Key struct {
	Workload string
	Opts     pipeline.Options
}

// BaseOptions is the standard evaluation configuration for a heuristic
// set — what every table and figure of the paper's evaluation uses.
func BaseOptions(set lower.HeuristicSet) pipeline.Options {
	return pipeline.Options{Switch: set, Optimize: true}
}

// EngineStats summarizes an engine's cache behaviour across its tiers
// (memo → disk). It is the serializable store.TierStats, so shard
// exports carry it and merged runs can total every shard's cache
// activity.
type EngineStats = store.TierStats

// Engine runs build+measure jobs on a bounded worker pool and memoizes
// every result by Key, so regenerating all of Tables 4-8, Figures 11-13
// and the ablation study compiles and simulates each configuration
// exactly once. Behind the Key memo, jobs are also keyed by content —
// frontend digest, inputs and options other than Switch — so a program
// that lowers identically under several heuristic sets is trained and
// measured once. An Engine is safe for concurrent use.
type Engine struct {
	jobs     int
	progress io.Writer
	sem      chan struct{}
	disk     *store.Store // optional second cache tier; nil means memory-only

	// Measure configures the measurement engine for every fresh build
	// (e.g. superinstruction fusion off, for `brbench -no-fuse`). Set it
	// before the first Get; measured results are identical for any
	// value, so cached entries stay valid across settings.
	Measure sim.Options

	// stages memoizes the build pipeline's cacheable stages (frontend,
	// detect+train) across jobs, so the ablation grid performs one
	// frontend and one training run per (workload, set, detection
	// config) instead of one per variant. When a disk tier is attached,
	// stage-2 products also persist as content-addressed profile
	// records, letting warm caches skip training runs even for Transform
	// combinations that miss the whole-build tier.
	stages *pipeline.StageCache

	mu    sync.Mutex // guards cache, shares, stats, and progress writes
	cache map[Key]*entry
	// shares is the content memo behind the build path, bucketed by
	// frontend digest: one slot per distinct (program, training input,
	// test input, options other than Switch) this engine has measured.
	shares map[[32]byte][]*share
	stats  EngineStats
}

// entry is one memoized job. done is closed exactly once, after run/err
// are final; waiters block on it rather than on the worker pool.
type entry struct {
	done chan struct{}
	run  *ProgramRun
	err  error
}

// share is one content-memo slot: a job that measured a distinct
// program on distinct inputs, and the result every job with the same
// content reuses. done is closed once run/tp/err are final; a failed slot
// is dropped from the memo before it closes, so waiters build themselves.
type share struct {
	digest      [32]byte
	train, test []byte
	opts        pipeline.Options // Switch zeroed
	done        chan struct{}
	run         *ProgramRun
	tp          *pipeline.TrainProduct
	err         error
}

// NewEngine returns an engine running at most jobs builds concurrently
// (GOMAXPROCS when jobs <= 0). Progress lines go to progress when
// non-nil; their order depends on scheduling, so pipe them to a log
// destination, not into table output.
func NewEngine(jobs int, progress io.Writer) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		jobs:     jobs,
		progress: progress,
		sem:      make(chan struct{}, jobs),
		cache:    map[Key]*entry{},
		shares:   map[[32]byte][]*share{},
		stages:   pipeline.NewStageCache(0),
	}
	e.stages.Profiles = profileTier{e}
	return e
}

// StageCache exposes the engine's build-stage cache so co-operating
// experiments (e.g. pipeline.AutoBuildWith) can share its frontends and
// training runs.
func (e *Engine) StageCache() *pipeline.StageCache { return e.stages }

// SetMeasure configures the measurement options and steers the stage
// cache's training runs onto the same execution engine. Call it before
// the first Get. Results and cache entries are identical for any value;
// only wall-clock and the fusion counters change.
func (e *Engine) SetMeasure(mo sim.Options) {
	e.Measure = mo
	e.stages.Exec = mo.Engine
}

// Jobs reports the worker-pool bound.
func (e *Engine) Jobs() int { return e.jobs }

// UseStore attaches a disk store as a second cache tier behind the
// in-memory memo: every memo miss probes the store before building, and
// every fresh build is written back. Attach it before the first Get.
func (e *Engine) UseStore(s *store.Store) { e.disk = s }

// Seed installs an already-measured run — typically loaded from an
// exported shard — into the memo cache, so a later Get for the same
// (workload, options) key is a cache hit instead of a rebuild. An
// existing entry wins; seeding never overwrites.
func (e *Engine) Seed(r *ProgramRun) {
	key := Key{Workload: r.Workload.Name, Opts: r.Opts}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[key]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	e.cache[key] = &entry{done: done, run: r}
	e.stats.Seeded++
}

// Stats returns a snapshot of the cache counters, the per-stage
// counters of the staged build pipeline included.
func (e *Engine) Stats() EngineStats {
	ss := e.stages.Stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.FrontendRuns = ss.FrontendRuns
	s.FrontendHits = ss.FrontendHits
	s.TrainRuns = ss.TrainRuns
	s.TrainHits = ss.TrainHits
	s.SampledTrainRuns = ss.SampledTrainRuns
	s.ProfileMergeHits = ss.ProfileMergeHits
	if e.stats.BuildSeconds != nil {
		s.BuildSeconds = make(map[string]float64, len(e.stats.BuildSeconds))
		for w, sec := range e.stats.BuildSeconds {
			s.BuildSeconds[w] = sec
		}
	}
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

// Get returns the memoized run for (w, opts), building and measuring it
// if no other caller has. Concurrent calls for the same key share one
// build; the loser waits for the winner rather than duplicating work.
func (e *Engine) Get(ctx context.Context, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	key := Key{Workload: w.Name, Opts: opts}
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		select {
		case <-ent.done:
			return ent.run, ent.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()

	// A cancellation is not a result: evict the entry so a later Get
	// with a live context rebuilds instead of replaying the stale error.
	defer func() {
		if ent.err != nil && (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) {
			e.mu.Lock()
			if e.cache[key] == ent {
				delete(e.cache, key)
			}
			e.mu.Unlock()
		}
		close(ent.done)
	}()

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
				ent.run = run
				return ent.run, nil
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
		ent.err = err
		return nil, err
	}
	e.mu.Lock()
	e.stats.Builds++
	e.mu.Unlock()
	e.logf("building %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
	ent.run, ent.err = e.build(ctx, w, opts)
	if ent.err == nil && e.disk != nil {
		// A write failure costs only the cache entry, not the run.
		if perr := e.disk.Put(fp, ent.run.Record()); perr != nil {
			e.logf("store write failed: %v\n", perr)
		}
	}
	return ent.run, ent.err
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

// build produces the run of a job no cache tier served. The caller holds
// a worker slot; build releases it. The job's frontend comes first: when
// it lowers to a program that another job has measured, or is measuring,
// on the same inputs under the same options but Switch, the job gives up
// its slot, waits, and is served by that run relabelled — the heuristic
// sets differ only in switch lowering, so most programs come out the same
// under all three. Everything after the frontend is deterministic in its
// content key, so the shared run is exactly the one a fresh build would
// produce.
func (e *Engine) build(ctx context.Context, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	train, test := TrainInput(w, opts), w.Test()
	for {
		front, err := e.stages.Frontend(w.Source, opts.Frontend())
		if err != nil {
			<-e.sem
			return nil, fmt.Errorf("%s (set %v): %w", w.Name, opts.Switch, err)
		}
		sh, owner := e.claim(front.Digest, train, test, opts)
		if owner {
			run, err := e.measure(front, sh, w, opts)
			<-e.sem
			return run, err
		}
		<-e.sem
		select {
		case <-sh.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if sh.err == nil {
			e.mu.Lock()
			e.stats.Shared++
			e.mu.Unlock()
			// Leave this job's profile record behind too, so a warm
			// store serves its Transform variants as if it had trained.
			profileTier{e}.PutProfile(w.Source, train, opts.Frontend(), opts.Detection(), sh.tp)
			return sh.run.relabel(w, opts, front.SwitchKinds), nil
		}
		// The owner failed and dropped its slot: claim it afresh.
		if err := e.acquire(ctx); err != nil {
			return nil, err
		}
	}
}

// claim returns the content-memo slot for a job whose frontend digests
// to digest, and whether the caller owns it and must fill it. Merging
// jobs never share: each training run folds a contribution into the
// persistent merged profile, so skipping one would change later results.
func (e *Engine) claim(digest [32]byte, train, test []byte, opts pipeline.Options) (*share, bool) {
	key := opts
	key.Switch = 0
	sh := &share{digest: digest, train: train, test: test, opts: key, done: make(chan struct{})}
	if opts.Profile.Merge {
		return sh, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, other := range e.shares[digest] {
		if other.opts == key && bytes.Equal(other.train, train) && bytes.Equal(other.test, test) {
			return other, false
		}
	}
	e.shares[digest] = append(e.shares[digest], sh)
	return sh, true
}

// measure fills an owned content-memo slot: train (through the stage
// cache), finalize and measure the job, then publish the result to the
// slot's waiters.
func (e *Engine) measure(front *pipeline.FrontendProduct, sh *share, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	start := time.Now()
	sh.tp, sh.err = e.stages.Train(w.Source, sh.train, opts.Frontend(), opts.Detection())
	var b *pipeline.BuildResult
	if sh.err == nil {
		b, sh.err = pipeline.FinalizeStages(front, sh.tp, opts)
	}
	if sh.err != nil {
		sh.err = fmt.Errorf("%s (set %v): %w", w.Name, opts.Switch, sh.err)
	} else {
		sh.run, sh.err = measureBuild(w, opts, b, sh.test, e.Measure)
	}
	e.mu.Lock()
	if sh.err != nil {
		bucket := e.shares[sh.digest]
		for i, other := range bucket {
			if other == sh {
				e.shares[sh.digest] = append(bucket[:i:i], bucket[i+1:]...)
				break
			}
		}
	} else {
		if e.stats.BuildSeconds == nil {
			e.stats.BuildSeconds = map[string]float64{}
		}
		e.stats.BuildSeconds[w.Name] += time.Since(start).Seconds()
		// Fusion counters follow the BuildSeconds discipline: fresh
		// measurements only, so cache hits (whose records may predate
		// the fields) and shared jobs never skew the summary.
		r := sh.run
		e.stats.FusedSites += r.Base.Fusion.Fused + r.Reord.Fusion.Fused
		e.stats.FusedOps += r.Base.Fusion.Inside + r.Reord.Fusion.Inside
		e.stats.DecodedOps += r.Base.Fusion.Ops + r.Reord.Fusion.Ops
	}
	e.mu.Unlock()
	close(sh.done)
	return sh.run, sh.err
}

// profileTier adapts the engine's disk tier into the stage cache's
// persistent store for stage-2 training products. Writes are
// best-effort: a failure just means a later run trains again.
type profileTier struct{ e *Engine }

func (p profileTier) GetProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions) (*pipeline.TrainProduct, bool) {
	e := p.e
	if e.disk == nil {
		return nil, false
	}
	rec, st := e.disk.GetProfile(store.ProfileFingerprint(src, train, fo, d))
	if st != store.Hit {
		return nil, false
	}
	e.mu.Lock()
	e.stats.ProfileHits++
	e.mu.Unlock()
	return rec.Train(), true
}

func (p profileTier) PutProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions, tp *pipeline.TrainProduct) {
	e := p.e
	if e.disk == nil {
		return
	}
	if perr := e.disk.PutProfile(store.ProfileFingerprint(src, train, fo, d), store.FromTrain(tp)); perr != nil {
		e.logf("profile store write failed: %v\n", perr)
		return
	}
	e.mu.Lock()
	e.stats.ProfilePuts++
	e.mu.Unlock()
}

// MergeProfile folds a just-trained product into the persistent
// merged-profile record for (src, fo, d) and returns the fold — the
// decay-weighted sum of this and every previously accumulated training
// input. The merged fingerprint deliberately ignores the training input
// and the drift choice, so successive runs over different inputs pile
// into one record. The updated record is written back best-effort. A nil
// return means no disk tier is attached and the caller should use the
// solo product; reused reports whether prior contributions were folded
// in.
func (p profileTier) MergeProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions, tp *pipeline.TrainProduct) (*pipeline.TrainProduct, bool) {
	e := p.e
	if e.disk == nil {
		return nil, false
	}
	fp := store.MergedFingerprint(src, fo, d)
	rec, st := e.disk.GetMerged(fp)
	reused := st == store.Hit // a stored record holds at least one contribution
	if !reused {
		rec = &store.MergedRecord{HalfLife: d.Profile.EffectiveHalfLife()}
	}
	rec.Merge(store.TrainDigest(train), store.FromTrain(tp))
	if perr := e.disk.PutMerged(fp, rec); perr != nil {
		e.logf("profile store write failed: %v\n", perr)
	} else {
		e.mu.Lock()
		e.stats.ProfilePuts++
		e.mu.Unlock()
	}
	return rec.Fold(), reused
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
	if len(parts) == 0 {
		return ""
	}
	s := " ["
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s + "]"
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

// Suite builds and measures every workload under every heuristic set.
func (e *Engine) Suite(ctx context.Context) (*Suite, error) {
	return e.SuiteOf(ctx, workload.All())
}

// SuiteOf builds and measures the given workloads under every heuristic
// set. Results are ordered exactly as ws regardless of which build
// finishes first, so rendered tables are byte-identical across -j values.
func (e *Engine) SuiteOf(ctx context.Context, ws []workload.Workload) (*Suite, error) {
	return e.SuiteOfOpts(ctx, ws, nil)
}

// SuiteOfOpts is SuiteOf with every job's options passed through mod
// (when non-nil), so a cross-cutting configuration — profile sampling or
// merging, say — applies to the whole evaluation matrix without
// enumerating jobs by hand.
func (e *Engine) SuiteOfOpts(ctx context.Context, ws []workload.Workload, mod func(pipeline.Options) pipeline.Options) (*Suite, error) {
	jobs := SuiteJobs(ws)
	if mod != nil {
		for i := range jobs {
			jobs[i].Opts = mod(jobs[i].Opts)
		}
	}
	runs, err := e.RunJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	s := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for si, set := range Sets() {
		s.Runs[set] = runs[si*len(ws) : (si+1)*len(ws)]
	}
	return s, nil
}
