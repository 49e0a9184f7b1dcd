package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sync"

	"branchreorder/internal/interp"
)

// StageCache memoizes the staged build pipeline's cacheable stages:
// frontends (stage 1) by (source, Switch, Optimize) and training products
// (stage 2) by (frontend key, training input, CommonSuccessor). Build
// composes the stages through the cache, so a 10-variant ablation grid
// performs exactly one frontend and one training run per (source, set,
// detection config) instead of one per variant.
//
// Lookups are single-flight: concurrent builds that need the same stage
// share one computation, the losers blocking on the winner. Both maps are
// bounded (LRU eviction), so a long-lived cache cannot grow without
// limit; an evicted stage simply recomputes on next use.
//
// Cached products are immutable by contract: FrontendProduct.Prog is
// cloned by every consumer before mutation, and TrainProduct counts are
// only read. A StageCache is safe for concurrent use.
type StageCache struct {
	// Exec selects the execution engine for training runs (and, via
	// AutoBuildWith, auto-evaluation runs). It deliberately lives
	// outside Options and every fingerprint: profiles are byte-identical
	// under any engine, so the choice must never split caches. Set it
	// before the first Build; the zero value is the closure engine.
	Exec interp.Engine

	mu     sync.Mutex
	limit  int
	fronts map[string]*stageEntry[*FrontendProduct]
	trains map[string]*stageEntry[*TrainProduct]
	// frontUse and trainUse order keys least-recently-used first.
	frontUse []string
	trainUse []string
	stats    StageStats
}

// StageStats counts a cache's per-stage activity.
type StageStats struct {
	// FrontendRuns counts stage-1 computations; FrontendHits counts
	// lookups served from memory (including joined in-flight runs).
	FrontendRuns int
	FrontendHits int
	// TrainRuns counts training runs actually executed; TrainHits counts
	// lookups served from memory (including joined in-flight runs).
	TrainRuns int
	TrainHits int
	// SampledTrainRuns counts the subset of TrainRuns that collected
	// sampled (non-exact) counts.
	SampledTrainRuns int
}

// stageEntry is one single-flight slot. done is closed once val/err are
// final.
type stageEntry[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// DefaultStageLimit bounds each stage map of a zero-configured cache:
// enough for the full evaluation matrix (17 workloads x 3 sets) with
// room to spare, small enough that a long-lived engine cannot hoard
// programs without bound.
const DefaultStageLimit = 96

// NewStageCache returns a cache holding at most limit entries per stage
// (DefaultStageLimit when limit <= 0).
func NewStageCache(limit int) *StageCache {
	if limit <= 0 {
		limit = DefaultStageLimit
	}
	return &StageCache{
		limit:  limit,
		fronts: map[string]*stageEntry[*FrontendProduct]{},
		trains: map[string]*stageEntry[*TrainProduct]{},
	}
}

// Stats returns a snapshot of the per-stage counters.
func (c *StageCache) Stats() StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// frontendKey derives the stage-1 content address. Sections are
// length-prefixed so concatenations cannot collide.
func frontendKey(src string, fo FrontendOptions) string {
	h := sha256.New()
	keySection(h, "source", []byte(src))
	keySection(h, "frontend", []byte(fmt.Sprintf("switch=%d optimize=%t", fo.Switch, fo.Optimize)))
	return hex.EncodeToString(h.Sum(nil))
}

// trainKey derives the stage-2 content address from the stage-1 key, the
// training input, and the detection configuration (which includes the
// profile configuration: sampled counts are a different product).
func trainKey(frontKey string, train []byte, d DetectOptions) string {
	h := sha256.New()
	keySection(h, "frontend-key", []byte(frontKey))
	keySection(h, "train", train)
	enc, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("pipeline: marshal DetectOptions: %v", err))
	}
	keySection(h, "detect", enc)
	return hex.EncodeToString(h.Sum(nil))
}

func keySection(h hash.Hash, name string, data []byte) {
	fmt.Fprintf(h, "%s %d\n", name, len(data))
	h.Write(data)
}

// touch moves key to the most-recently-used end of use, appending it if
// absent, and returns the updated order.
func touch(use []string, key string) []string {
	for i, k := range use {
		if k == key {
			return append(append(use[:i:i], use[i+1:]...), key)
		}
	}
	return append(use, key)
}

// Frontend returns the stage-1 product for (src, fo), computing it at
// most once per cached lifetime. The returned product is immutable;
// clone its program before mutating.
func (c *StageCache) Frontend(src string, fo FrontendOptions) (*FrontendProduct, error) {
	key := frontendKey(src, fo)
	c.mu.Lock()
	if ent, ok := c.fronts[key]; ok {
		c.stats.FrontendHits++
		c.frontUse = touch(c.frontUse, key)
		c.mu.Unlock()
		<-ent.done
		return ent.val, ent.err
	}
	ent := &stageEntry[*FrontendProduct]{done: make(chan struct{})}
	c.fronts[key] = ent
	c.frontUse = touch(c.frontUse, key)
	c.stats.FrontendRuns++
	if len(c.fronts) > c.limit {
		c.evictFrontLocked()
	}
	c.mu.Unlock()

	ent.val, ent.err = BuildFrontend(src, fo)
	close(ent.done)
	if ent.err != nil {
		// Errors are not products: drop the entry so a later lookup
		// retries instead of replaying a stale failure.
		c.mu.Lock()
		if c.fronts[key] == ent {
			delete(c.fronts, key)
			c.frontUse = remove(c.frontUse, key)
		}
		c.mu.Unlock()
	}
	return ent.val, ent.err
}

// Train returns the stage-2 product for (src, train, fo, d), running the
// training pass at most once per cached lifetime.
func (c *StageCache) Train(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, error) {
	key := trainKey(frontendKey(src, fo), train, d)
	c.mu.Lock()
	if ent, ok := c.trains[key]; ok {
		c.stats.TrainHits++
		c.trainUse = touch(c.trainUse, key)
		c.mu.Unlock()
		<-ent.done
		return ent.val, ent.err
	}
	ent := &stageEntry[*TrainProduct]{done: make(chan struct{})}
	c.trains[key] = ent
	c.trainUse = touch(c.trainUse, key)
	if len(c.trains) > c.limit {
		c.evictTrainLocked()
	}
	c.mu.Unlock()

	ent.val, ent.err = c.train(src, train, fo, d)
	close(ent.done)
	if ent.err != nil {
		c.mu.Lock()
		if c.trains[key] == ent {
			delete(c.trains, key)
			c.trainUse = remove(c.trainUse, key)
		}
		c.mu.Unlock()
	}
	return ent.val, ent.err
}

// train runs one training pass on the cached frontend of (src, fo).
func (c *StageCache) train(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, error) {
	front, err := c.Frontend(src, fo)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.TrainRuns++
	if d.Profile.Sampling() {
		c.stats.SampledTrainRuns++
	}
	c.mu.Unlock()
	return TrainStageWith(front, train, d, c.Exec)
}

// Build runs the full staged pipeline through the cache: stage 1 and
// stage 2 are shared with every other build of the same source, stage 3
// always runs. The result is byte-identical to the monolithic Build.
func (c *StageCache) Build(src string, train []byte, o Options) (*BuildResult, error) {
	front, err := c.Frontend(src, o.Frontend())
	if err != nil {
		return nil, err
	}
	tp, err := c.Train(src, train, o.Frontend(), o.Detection())
	if err != nil {
		return nil, err
	}
	return FinalizeStages(front, tp, o)
}

// evictFrontLocked drops the least-recently-used completed frontend.
// In-flight entries are skipped: evicting one would detach waiters from
// the single-flight slot. c.mu must be held.
func (c *StageCache) evictFrontLocked() {
	for _, key := range c.frontUse {
		ent := c.fronts[key]
		select {
		case <-ent.done:
			delete(c.fronts, key)
			c.frontUse = remove(c.frontUse, key)
			return
		default:
		}
	}
}

func (c *StageCache) evictTrainLocked() {
	for _, key := range c.trainUse {
		ent := c.trains[key]
		select {
		case <-ent.done:
			delete(c.trains, key)
			c.trainUse = remove(c.trainUse, key)
			return
		default:
		}
	}
}

func remove(use []string, key string) []string {
	for i, k := range use {
		if k == key {
			return append(use[:i:i], use[i+1:]...)
		}
	}
	return use
}
