package profile

import (
	"reflect"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
)

// testProfiles builds count storage shaped like a training run's: one
// range sequence with 4 arms, [MIN..3], [4..7], [8..11] and [12..MAX],
// and one or-sequence with 3 conditions.
func testProfiles() (*core.Profile, *core.OrProfile) {
	var arms []core.Arm
	for lo := int64(0); lo < 16; lo += 4 {
		arms = append(arms, core.Arm{R: core.Range{Lo: lo, Hi: lo + 3}})
	}
	arms[0].R.Lo, arms[3].R.Hi = ir.MinVal, ir.MaxVal
	prof := core.NewProfile([]*core.Sequence{{ID: 0, Arms: arms}})
	orProf := &core.OrProfile{Seqs: map[int]*core.OrSeqProfile{
		1: {N: 3, Combos: make([]uint64, 8)},
	}}
	return prof, orProf
}

// drive replays a deterministic synthetic event stream as a training run
// delivers it: seq 0's head executions, with values in [0, 16), count in
// an arm table with the sampler's countdown, as the engines' Prof
// instructions do, and seq 1 gets 3-sub ProfCond groups through the
// sampler-wrapped hook, committed on the last sub as core's hook does.
// Returns the stream's exact per-arm truth for seq 0.
func drive(s *Sampler, prof *core.Profile, orProf *core.OrProfile, events int) []uint64 {
	los, arms := prof.ArmsByLo(0)
	rate, first := s.Countdown(0)
	sp := prof.Seqs[0]
	table := interp.NewArmTable(los, arms, sp.Counts, rate, first)
	// Reimplements core's or-hook on the test's own storage, with group
	// assembly tracked explicitly so a dropped sub (broken group
	// integrity) panics instead of silently corrupting a mask.
	var pendingSubs int
	orNext := func(seqID, sub int, v int64) {
		if seqID != 1 {
			panic("range sequence event reached the hook")
		}
		if sub == 0 {
			pendingSubs = 0
		} else if pendingSubs != sub {
			panic("or-seq group broken: sub forwarded without its predecessors")
		}
		pendingSubs++
		if pendingSubs == 3 {
			op := orProf.Seqs[1]
			op.Combos[int(v)&7]++
			op.Total++
		}
	}
	hook := s.Hook(orNext)
	truth := make([]uint64, 4)
	r := uint64(99)
	for i := 0; i < events; i++ {
		r = splitmix64(r)
		v := int64(r % 16)
		table.Count(v)
		truth[v/4]++
		// Every 3rd event also executes the or-sequence head.
		if i%3 == 0 {
			hook(1, 0, v)
			hook(1, 1, v)
			hook(1, 2, v)
		}
	}
	// The training run sums each range sequence's total.
	for _, c := range sp.Counts {
		sp.Total += c
	}
	return truth
}

// The arm table's countdown keeps the head executions the sampler's hook
// keeps: on one stream, the sampler-wrapped core.Profile hook and the
// table count the same.
func TestCountdownKeepsWhatHookKeeps(t *testing.T) {
	for _, cfg := range []Config{{}, {Mode: EveryNth, Rate: 1, Seed: 2}, {Mode: EveryNth, Rate: 7, Seed: 3}, {Mode: EveryNth, Rate: 64, Seed: 4}} {
		hookProf, hookOr := testProfiles()
		hs := NewSampler(cfg, hookProf, hookOr)
		hook := hs.Hook(hookProf.Hook())
		prof, orProf := testProfiles()
		s := NewSampler(cfg, prof, orProf)
		drive(s, prof, orProf, 3000)
		r := uint64(99)
		for i := 0; i < 3000; i++ {
			r = splitmix64(r)
			hook(0, 0, int64(r%16))
		}
		if !reflect.DeepEqual(prof.Seqs[0], hookProf.Seqs[0]) {
			t.Errorf("%+v: table counts %v, hook counts %v", cfg, prof.Seqs[0], hookProf.Seqs[0])
		}
	}
}

func TestExactModeIsPassThrough(t *testing.T) {
	called := false
	next := func(seqID, sub int, v int64) { called = true }
	prof, orProf := testProfiles()
	s := NewSampler(Config{}, prof, orProf)
	h := s.Hook(next)
	h(0, 0, 1)
	if !called {
		t.Fatal("zero-config hook did not forward the event")
	}
	// The wrapper must be the identity, not a keep-everything shim: the
	// differential guarantee is no code-path change at all.
	if reflect.ValueOf(h).Pointer() != reflect.ValueOf(next).Pointer() {
		t.Fatal("zero-config Hook returned a wrapper instead of next itself")
	}
}

func TestEveryNthRateOneMatchesExact(t *testing.T) {
	exactProf, exactOr := testProfiles()
	drive(NewSampler(Config{}, exactProf, exactOr), exactProf, exactOr, 5000)

	prof, orProf := testProfiles()
	s := NewSampler(Config{Mode: EveryNth, Rate: 1, Seed: 7}, prof, orProf)
	drive(s, prof, orProf, 5000)
	s.Scale()

	if !reflect.DeepEqual(prof.Seqs[0], exactProf.Seqs[0]) {
		t.Fatalf("rate-1 EveryNth counts differ from exact: %v vs %v", prof.Seqs[0], exactProf.Seqs[0])
	}
	if !reflect.DeepEqual(orProf.Seqs[1].Combos, exactOr.Seqs[1].Combos) {
		t.Fatalf("rate-1 EveryNth or-counts differ from exact")
	}
}

func TestSamplingDeterministic(t *testing.T) {
	cfg := Config{Mode: EveryNth, Rate: 8, Seed: 42}
	run := func() *core.SeqProfile {
		prof, orProf := testProfiles()
		s := NewSampler(cfg, prof, orProf)
		drive(s, prof, orProf, 20000)
		s.Scale()
		return prof.Seqs[0]
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different counts: %v vs %v", a, b)
	}
	other := cfg
	other.Seed = 43
	prof, orProf := testProfiles()
	s := NewSampler(other, prof, orProf)
	drive(s, prof, orProf, 20000)
	s.Scale()
	if reflect.DeepEqual(a, prof.Seqs[0]) {
		t.Fatal("different seeds produced identical sampled counts")
	}
}

func TestScaledCountsUnbiased(t *testing.T) {
	const events = 200000
	for _, cfg := range []Config{
		{Mode: EveryNth, Rate: 64, Seed: 3},
	} {
		prof, orProf := testProfiles()
		s := NewSampler(cfg, prof, orProf)
		truth := drive(s, prof, orProf, events)
		s.Scale()
		sp := prof.Seqs[0]
		var trueTotal uint64
		for _, c := range truth {
			trueTotal += c
		}
		// Scaled total within 15% of the exact total, per-arm shares
		// within 10 points — loose bounds, but a biased estimator (e.g.
		// forgetting to scale, or double-scaling) misses them by miles.
		ratio := float64(sp.Total) / float64(trueTotal)
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("%v: scaled total %d vs true %d (ratio %.3f)", cfg, sp.Total, trueTotal, ratio)
		}
		for i := range truth {
			got := float64(sp.Counts[i]) / float64(sp.Total)
			want := float64(truth[i]) / float64(trueTotal)
			if got < want-0.10 || got > want+0.10 {
				t.Fatalf("%v: arm %d share %.3f vs true %.3f", cfg, i, got, want)
			}
		}
	}
}

func TestBiasCorruptsExecutedSequences(t *testing.T) {
	prof, orProf := testProfiles()
	prof.Seqs[0].Counts[2] = 10
	prof.Seqs[0].Total = 10
	// A second, never-executed sequence must stay untouched: bias must
	// not flip ReasonNotExecuted decisions.
	prof.Seqs[9] = &core.SeqProfile{Counts: make([]uint64, 2)}
	s := NewSampler(Config{Bias: 1000}, prof, orProf)
	s.Scale()
	if got := prof.Seqs[0].Counts[0]; got != 1000 {
		t.Fatalf("bias not applied: Counts[0] = %d", got)
	}
	if got := prof.Seqs[0].Total; got != 1010 {
		t.Fatalf("bias not reflected in total: %d", got)
	}
	if prof.Seqs[9].Total != 0 {
		t.Fatal("bias leaked into a never-executed sequence")
	}
}
