package bench

import (
	"context"
	"reflect"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/profile"
)

// The zero profile configuration and the study's rate-1 reference must
// be invisible: builds carrying them measure exactly what a plain build
// measures. This is the differential guard for the whole subsystem —
// when nobody asks for sampling, nothing changes.
func TestExactModeMatchesPlainBuild(t *testing.T) {
	ws := subset(t, "wc", "sort")
	for _, w := range ws {
		plain, err := RunOpts(w, BaseOptions(lower.SetII))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunOpts(w, ProfileStudyOptions(profile.DriftCross, 1, 7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Base, ref.Base) || !reflect.DeepEqual(plain.Reord, ref.Reord) {
			t.Errorf("%s: rate-1 reference measured differently from a plain build", w.Name)
		}
		if !reflect.DeepEqual(plain.Seqs, ref.Seqs) {
			t.Errorf("%s: rate-1 reference selected different orderings", w.Name)
		}
	}
}

// A sampled build must degrade gracefully: same sequence count, and the
// study's metrics must be live. Every rate-1 row scores its reference
// against itself and must read perfect agreement, while sampling alone
// must move some 1/8 row (sort and lex both lose order agreement at
// 1/8), so a study that scored anything but the sampled counts fails.
func TestProfileStudyRowsReactToSampling(t *testing.T) {
	ws := subset(t, "wc", "sort", "lex")
	ctx := context.Background()
	rates := []int{1, 8}
	rows, err := RunProfileStudyWith(ctx, NewEngine(4, nil), ws, rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ws) * len(ProfileStudyDrifts()) * len(rates); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	moved := false
	for _, r := range rows {
		if r.Rate == 1 && (r.OrderAgree != 100 || r.DefaultAgree != 100 || r.CycleDelta != 0) {
			t.Errorf("%s/%s rate 1: reference row disagrees with itself: %+v", r.Workload, r.Drift, r)
		}
		if r.Seqs == 0 {
			t.Errorf("%s/%s 1/%d: no sequences compared", r.Workload, r.Drift, r.Rate)
		}
		if r.Rate == 8 && r.OrderAgree < 100 {
			moved = true
		}
	}
	if !moved {
		t.Error("every 1/8 row agrees with its exact reference: the study does not see sampling")
	}
}

// The study table must not leak worker-pool completion order.
func TestProfileStudyDeterministicAcrossJobs(t *testing.T) {
	ws := subset(t, "wc", "sort")
	ctx := context.Background()
	rates := []int{1, 64}
	serial, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunProfileStudyWith(ctx, NewEngine(8, nil), ws, rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := ProfileStudyTable(parallel), ProfileStudyTable(serial)
	if got != want {
		t.Errorf("-j 8 study differs from -j 1:\n--- j=8 ---\n%s\n--- j=1 ---\n%s", got, want)
	}
}

func TestRunProfileStudyRejectsBadRates(t *testing.T) {
	ws := subset(t, "wc")
	ctx := context.Background()
	if _, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, []int{8, 64}, 1); err == nil {
		t.Error("missing reference rate accepted")
	}
	if _, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, []int{1, 0}, 1); err == nil {
		t.Error("rate 0 accepted")
	}
}
