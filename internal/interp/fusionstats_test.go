package interp_test

// External test package: these tests compile workloads through the full
// pipeline, which imports interp — an import cycle for in-package tests
// but not for interp_test.

import (
	"reflect"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

func frontendProg(t *testing.T, name string) (*lower.Result, workload.Workload) {
	t.Helper()
	var w workload.Workload
	for _, c := range workload.All() {
		if c.Name == name {
			w = c
		}
	}
	if w.Name == "" {
		t.Fatalf("workload %q not in roster", name)
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return front, w
}

// TestFusionStatsWC pins the exact static fusion report of the wc
// workload. The numbers move only when the curated pattern set or wc's
// compiled shape changes; when they do, re-pin deliberately — the test
// exists so fusion coverage cannot silently rot.
func TestFusionStatsWC(t *testing.T) {
	front, _ := frontendProg(t, "wc")
	code, err := interp.Decode(front.Prog)
	if err != nil {
		t.Fatal(err)
	}
	got := code.FusionStats()
	want := interp.FusionStats{
		Ops:    33,
		Fused:  6,
		Inside: 19,
		Patterns: map[string]int{
			"enter+mov":          1, // prologue constant setup
			"getchar+cmpbr":      1, // the EOF-tested read at the loop head
			"ld+add+st+cmpbr":    1, // char-count bump feeding the space test
			"ld+add+st+jump":     1, // line-count bump on the newline arm
			"ld+add+st+mov+jump": 1, // word-count bump plus state reset
			"mov+jump":           1, // in-word state propagation
		},
	}
	if got.Ops != want.Ops || got.Fused != want.Fused || got.Inside != want.Inside ||
		!reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Errorf("wc fusion stats:\ngot:  %+v\nwant: %+v", got, want)
	}
}
