package profile

import "branchreorder/internal/core"

// splitmix64 is the standard 64-bit mixer (Vigna); one step advances the
// state and returns a well-distributed output word. It is the only
// randomness source in the package, so sampled counts are a pure
// function of (Config, training input).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a33df8d966d7
	return z ^ (z >> 31)
}

// mix derives a per-sequence stream from the configured seed.
func mix(seed uint64, seqID int) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(uint64(seqID)*0x9e3779b97f4a7c15))
}

// seqState is the sampler's per-sequence state.
type seqState struct {
	keep   bool   // latched decision for the event group in flight
	events uint64 // head executions seen so far
	phase  uint64 // which residue mod rate is kept
}

// Sampler thins the training-run profile according to a Config and
// scales the surviving counts back to exact-profile shape. Range
// sequences are counted in the engine's arm tables, which take their
// countdown from Countdown; the or-sequences' ProfCond events reach the
// OrProfile hook through Hook. Wiring is:
//
//	s := profile.NewSampler(cfg, prof, orProf)
//	rate, first := s.Countdown(seqID) // per range sequence's table
//	machine.OnProf = s.Hook(orProf.Hook())
//	... run training input, then sum each range sequence's Total ...
//	s.Scale()
//
// One head execution of an or-sequence emits N consecutive ProfCond
// events (sub 0..N-1) that the OrProfile hook assembles into a joint
// outcome mask, so the sampler decides keep/drop once per group — at
// sub == 0 — and latches that decision for the group's remaining subs.
// Dropping individual subs would corrupt the mask assembly.
type Sampler struct {
	cfg    Config
	rate   uint64
	prof   map[int]*core.SeqProfile
	orProf map[int]*core.OrSeqProfile
	seqs   map[int]*seqState
}

// NewSampler builds a sampler over the training profiles about to be
// filled. The maps are retained: Scale rewrites their counts at the end
// of the run.
func NewSampler(cfg Config, prof *core.Profile, orProf *core.OrProfile) *Sampler {
	s := &Sampler{
		cfg:  cfg,
		rate: cfg.EffectiveRate(),
		seqs: map[int]*seqState{},
	}
	if prof != nil {
		s.prof = prof.Seqs
	}
	if orProf != nil {
		s.orProf = orProf.Seqs
	}
	return s
}

func (s *Sampler) state(seqID int) *seqState {
	st := s.seqs[seqID]
	if st == nil {
		st = &seqState{phase: s.phase(seqID)}
		s.seqs[seqID] = st
	}
	return st
}

// phase is the residue mod rate of the head executions of seqID that
// EveryNth keeps.
func (s *Sampler) phase(seqID int) uint64 { return mix(s.cfg.Seed, seqID) % s.rate }

// Countdown returns how an arm table keeps the head executions of range
// sequence seqID that Hook would: one in rate, the first kept being
// execution first (0-based). An exact config keeps every execution.
func (s *Sampler) Countdown(seqID int) (rate, first uint64) {
	if !s.cfg.Sampling() {
		return 1, 0
	}
	return s.rate, s.phase(seqID)
}

// Hook wraps the exact-collection profile hook with the sampling
// decision. With Exact mode the hook is returned unchanged, so a zero
// Config is bit-for-bit the paper's instrumentation.
func (s *Sampler) Hook(next func(seqID, sub int, v int64)) func(seqID, sub int, v int64) {
	if next == nil || !s.cfg.Sampling() {
		return next
	}
	return func(seqID, sub int, v int64) {
		st := s.state(seqID)
		if sub == 0 {
			st.keep = s.decide(st)
		}
		if st.keep {
			next(seqID, sub, v)
		}
	}
}

// decide runs once per event group (head execution) of a sequence and
// keeps one group in rate.
func (s *Sampler) decide(st *seqState) bool {
	keep := st.events%s.rate == st.phase
	st.events++
	return keep
}

// Scale rewrites the retained counts back to exact-profile magnitude
// after the training run, multiplying them by the sampling rate. Totals
// are recomputed as the sum of the scaled counts so the count/total
// invariant the selection code divides by still holds.
// Finally the configured Bias, if any, corrupts each executed sequence's
// first counter — the quality harness's proof that its metrics react to
// profile damage.
func (s *Sampler) Scale() {
	if s.cfg.Sampling() && s.rate > 1 {
		for _, sp := range s.prof {
			sp.Total = scale(sp.Counts, s.rate)
		}
		for _, op := range s.orProf {
			op.Total = scale(op.Combos, s.rate)
		}
	}
	if s.cfg.Bias > 0 {
		for _, sp := range s.prof {
			if sp.Total > 0 && len(sp.Counts) > 0 {
				sp.Counts[0] += s.cfg.Bias
				sp.Total += s.cfg.Bias
			}
		}
		for _, op := range s.orProf {
			if op.Total > 0 && len(op.Combos) > 0 {
				op.Combos[0] += s.cfg.Bias
				op.Total += s.cfg.Bias
			}
		}
	}
}

// scale multiplies counts by factor in place and returns their sum.
func scale(counts []uint64, factor uint64) uint64 {
	var total uint64
	for i := range counts {
		counts[i] *= factor
		total += counts[i]
	}
	return total
}
