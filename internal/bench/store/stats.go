package store

// TierStats counts one engine's cache activity across its tiers
// (in-memory memo → disk store). It lives in this
// package, not bench, because shard export files carry it: a merged
// run's summary can then account for every shard's cache behaviour,
// not just its own. Zero counters for a tier just mean the tier was
// not attached.
type TierStats struct {
	// Builds is the number of build+measure jobs no cache tier served.
	Builds int `json:"builds"`
	// Shared is the subset of Builds served by another job's measurement
	// of the identical program on identical inputs (typically the same
	// workload under another heuristic set), relabelled rather than
	// trained, finalized and measured again.
	Shared int `json:"sharedBuilds,omitempty"`
	// Hits is the number of lookups served from the in-memory memo
	// (including callers that joined an in-flight build).
	Hits int `json:"memoHits"`
	// Seeded is the number of pre-measured runs installed into the memo
	// from merged shard exports rather than built or fetched by this
	// engine.
	Seeded int `json:"seeded,omitempty"`

	// Disk-tier counters; all stay zero when no store is attached.
	DiskHits    int `json:"diskHits,omitempty"`    // jobs served from the disk store without building
	DiskMisses  int `json:"diskMisses,omitempty"`  // jobs with no usable entry on disk
	DiskInvalid int `json:"diskInvalid,omitempty"` // corrupt, truncated or schema-mismatched entries, treated as misses

	// Staged-build counters: the engine composes every fresh build from
	// cached stages (frontend → detect+train → finalize), so these count
	// how often the expensive stages actually ran versus were reused.
	// All stay zero for runs served entirely from the memo/disk tiers.
	FrontendRuns int `json:"frontendRuns,omitempty"` // stage-1 frontends actually compiled
	FrontendHits int `json:"frontendHits,omitempty"` // stage-1 lookups served from the stage cache
	TrainRuns    int `json:"trainRuns,omitempty"`    // stage-2 training runs actually executed
	TrainHits    int `json:"trainHits,omitempty"`    // stage-2 lookups served from the stage cache
	ProfileHits  int `json:"profileHits,omitempty"`  // training runs avoided by a stored profile record
	ProfilePuts  int `json:"profilePuts,omitempty"`  // fresh profile records persisted for later runs
	// Profile-subsystem counters: training runs that collected sampled
	// (non-exact) counts, and training runs whose counts were folded into
	// a pre-existing merged profile record (warm start).
	SampledTrainRuns int `json:"sampledTrainRuns,omitempty"`
	ProfileMergeHits int `json:"profileMergeHits,omitempty"`

	// Superinstruction counters, aggregated over freshly built
	// executables only (like BuildSeconds; cache hits and shared jobs add
	// nothing):
	// how many fused superinstruction sites their decoded code holds,
	// how many original ops those sites absorb, and how many dispatch
	// slots it has pre-fusion, so a summary can report static coverage
	// (FusedOps/DecodedOps).
	FusedSites int `json:"fusedSites,omitempty"`
	FusedOps   int `json:"fusedOps,omitempty"`
	DecodedOps int `json:"decodedOps,omitempty"`

	// BuildSeconds is the wall-clock cost of the fresh measurements
	// behind Builds, keyed by workload and summed over every
	// configuration built for it. Cache hits and shared jobs add nothing,
	// so a BENCH trajectory over exports tracks engine speed separately
	// from cache effectiveness.
	BuildSeconds map[string]float64 `json:"buildSeconds,omitempty"`
}

// Add accumulates o into s, counter by counter — how a merge totals the
// cache activity of every exported shard.
func (s *TierStats) Add(o TierStats) {
	s.Builds += o.Builds
	s.Shared += o.Shared
	s.Hits += o.Hits
	s.Seeded += o.Seeded
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.DiskInvalid += o.DiskInvalid
	s.FrontendRuns += o.FrontendRuns
	s.FrontendHits += o.FrontendHits
	s.TrainRuns += o.TrainRuns
	s.TrainHits += o.TrainHits
	s.ProfileHits += o.ProfileHits
	s.ProfilePuts += o.ProfilePuts
	s.SampledTrainRuns += o.SampledTrainRuns
	s.ProfileMergeHits += o.ProfileMergeHits
	s.FusedSites += o.FusedSites
	s.FusedOps += o.FusedOps
	s.DecodedOps += o.DecodedOps
	for w, sec := range o.BuildSeconds {
		if s.BuildSeconds == nil {
			s.BuildSeconds = make(map[string]float64, len(o.BuildSeconds))
		}
		s.BuildSeconds[w] += sec
	}
}
