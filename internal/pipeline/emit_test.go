package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/opt"
	"branchreorder/internal/randprog"
	"branchreorder/internal/workload"
)

// The compiler's output is pinned by digest: any change to what lowering,
// the optimizer, detection, the transform or the linearizer emits moves
// one of these constants. results.txt compares only the tables, which a
// different but equally good program can reproduce. A deliberate change
// to the emitted code re-records them and says why.
const (
	// suiteEmitDigest covers the baseline and reordered programs of all
	// 51 suite jobs (Sets I-III over the roster, trained on each
	// workload's own training input).
	suiteEmitDigest = "5048fc1cf2577b1f567fad65298f66ceb20a948f2d4c4939d295da31f2e2e8e6"
	// randEmitDigest covers opt.Program + Linearize over every randprog
	// seed in [0, randEmitSeeds) whose program verifies.
	randEmitDigest = "fac9773842c6579eef2ca292cba249eb0166c7861218fb4b38c06858ccadf63a"
	randEmitSeeds  = 5000
)

func TestSuiteEmitDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all 51 suite jobs")
	}
	h := sha256.New()
	for _, set := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
		for _, w := range workload.All() {
			r, err := Build(w.Source, w.Train(), Options{Switch: set, Optimize: true})
			if err != nil {
				t.Fatalf("%s (set %v): %v", w.Name, set, err)
			}
			for _, p := range []*ir.Program{r.Baseline, r.Reordered} {
				d := p.Digest()
				h.Write(d[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != suiteEmitDigest {
		t.Errorf("suite emit digest = %s, want %s", got, suiteEmitDigest)
	}
}

func TestRandprogOptDigest(t *testing.T) {
	h := sha256.New()
	verified := 0
	for seed := uint64(0); seed < randEmitSeeds; seed++ {
		p := randprog.New(seed)
		if p.Verify() != nil {
			continue
		}
		verified++
		opt.Program(p)
		p.Linearize()
		d := p.Digest()
		h.Write(binary.AppendUvarint(nil, seed))
		h.Write(d[:])
	}
	t.Logf("%d of %d seeds verify", verified, randEmitSeeds)
	if got := hex.EncodeToString(h.Sum(nil)); got != randEmitDigest {
		t.Errorf("randprog opt digest = %s, want %s", got, randEmitDigest)
	}
}
