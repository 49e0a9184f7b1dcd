package store

// TierStats counts one engine's work: the jobs it built, the disk
// tier's hits and misses, and each memoized build stage's runs and
// reuses. It lives in this package, not bench, because the -json dump
// that WriteExport writes carries it.
type TierStats struct {
	// Builds is the number of build+measure jobs the disk tier did not
	// serve.
	Builds int `json:"builds"`
	// Shared is the subset of Builds served by another job's measurement
	// of the identical program on identical inputs (typically the same
	// workload under another heuristic set), relabelled rather than
	// trained, finalized and measured again.
	Shared int `json:"sharedBuilds,omitempty"`

	// Disk-tier counters; all stay zero when no store is attached.
	DiskHits    int `json:"diskHits,omitempty"`    // jobs served from the disk store without building
	DiskMisses  int `json:"diskMisses,omitempty"`  // jobs with no usable entry on disk
	DiskInvalid int `json:"diskInvalid,omitempty"` // corrupt, truncated or schema-mismatched entries, treated as misses

	// Stage counters: the engine composes every build from memoized
	// stages (frontend → detect+train and baseline → finalize+measure),
	// so these count how often a stage ran versus was reused. All stay
	// zero for runs served entirely from the disk tier.
	FrontendRuns int `json:"frontendRuns,omitempty"` // frontends actually compiled
	FrontendHits int `json:"frontendHits,omitempty"` // jobs served another job's frontend
	TrainRuns    int `json:"trainRuns,omitempty"`    // training runs actually executed
	TrainHits    int `json:"trainHits,omitempty"`    // jobs served another job's training run
	// SampledTrainRuns counts the training runs that collected sampled
	// (non-exact) counts.
	SampledTrainRuns int `json:"sampledTrainRuns,omitempty"`
	BaselineRuns     int `json:"baselineRuns,omitempty"` // baseline measurements actually run
	BaselineHits     int `json:"baselineHits,omitempty"` // jobs served another job's baseline of the same program and test input
}
