// Package profile owns the collection side of the paper's profile:
// how training-run events become the counts that selection reads.
//
// The paper trains reordering on exact head-of-sequence counts from one
// training input. Production PGO lives with less: counters are sampled
// (full instrumentation is too expensive to leave on), and the profile
// is stale by the time it is consumed. This package provides the
// sampled-collection layer (Sampler), which sets the countdown of the
// engine's arm tables (interp.ArmTable) that count the range sequences
// and wraps the core.OrProfile hook that counts the or-sequences, and
// the configuration (Config) that the build pipeline, the
// content-addressed store, and the brbench -profile-study quality
// harness all key on.
//
// Everything is deterministic by construction: sampling decisions come
// from a seeded splitmix64 stream per sequence, never from time or
// global randomness, so the same seed produces bit-identical sampled
// counts at any parallelism — the property every byte-identity contract
// in this repo is built on.
package profile

// Mode selects how training-run events are collected.
type Mode int

const (
	// Exact is the paper's instrumentation: every head-of-sequence
	// execution is counted. The zero value, so a zero Config changes
	// nothing about a build.
	Exact Mode = iota
	// EveryNth keeps one event in Rate per sequence (systematic
	// sampling with a seeded per-sequence phase), then scales the kept
	// counts back up by Rate.
	EveryNth
)

func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case EveryNth:
		return "nth"
	default:
		return "mode?"
	}
}

// Drift selects which input a build trains on, relative to the input it
// is measured on — the staleness axis of the quality study.
type Drift int

const (
	// DriftCross is the paper's split: train on the workload's training
	// input, measure on its test input. The zero value.
	DriftCross Drift = iota
	// DriftNone trains on the test input itself — the zero-staleness
	// upper bound a production profile can only approach.
	DriftNone
)

func (d Drift) String() string {
	switch d {
	case DriftCross:
		return "train→test"
	case DriftNone:
		return "test→test"
	default:
		return "drift?"
	}
}

// Config is the profile-lifecycle configuration of one build. It is a
// flat comparable struct so it can ride inside pipeline option keys,
// engine memo keys, and store fingerprints; every field is omitempty so
// the zero value — the paper's exact, single-input profile — encodes as
// an empty object and perturbs nothing.
type Config struct {
	// Mode and Rate configure sampled collection. Rate r means one event
	// in r is kept; values <= 1 keep every event.
	Mode Mode `json:"mode,omitempty"`
	Rate int  `json:"rate,omitempty"`
	// Seed drives every sampling decision. Same seed, same counts.
	Seed uint64 `json:"seed,omitempty"`
	// Drift selects the training input (see Drift).
	Drift Drift `json:"drift,omitempty"`
}

// Sampling reports whether the configuration actually samples — i.e.
// whether the training run's countdowns and or-sequence hook differ
// from exact collection. An EveryNth config at rate <= 1 still runs the
// sampling path (it keeps every event and scales by 1), which the
// differential tests rely on being bit-identical to Exact.
func (c Config) Sampling() bool { return c.Mode != Exact }

// EffectiveRate is the sampling rate with the <= 1 floor applied.
func (c Config) EffectiveRate() uint64 {
	if c.Rate <= 1 {
		return 1
	}
	return uint64(c.Rate)
}
