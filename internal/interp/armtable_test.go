package interp

import (
	"math"
	"math/rand"
	"testing"
)

// naiveArm is the arm of v by ArmTable's definition: the one starting at
// the greatest bound not above v, or the first.
func naiveArm(los []int64, arms []int, v int64) int {
	a := arms[0]
	for i, lo := range los {
		if lo <= v {
			a = arms[i]
		}
	}
	return a
}

// randomArms returns 1-6 strictly ascending bounds from math.MinInt64,
// with gaps that keep some windows dense and make others wide, and a
// permutation of the arms they start.
func randomArms(rng *rand.Rand) ([]int64, []int) {
	n := 1 + rng.Intn(6)
	los := []int64{math.MinInt64}
	next := int64(rng.Intn(6000) - 3000)
	for len(los) < n {
		los = append(los, next)
		switch rng.Intn(8) {
		case 0:
			next += 4000 + int64(rng.Intn(200))
		case 1:
			next += 1 << 40
		default:
			next += 1 + int64(rng.Intn(50))
		}
	}
	if n > 1 && rng.Intn(6) == 0 {
		los[n-1] = math.MaxInt64
	}
	return los, rng.Perm(n)
}

// probes returns values at and around every bound, the domain's ends and
// random values near and far from the window.
func probes(rng *rand.Rand, los []int64) []int64 {
	vs := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	for _, lo := range los {
		vs = append(vs, lo-1, lo, lo+1)
	}
	for i := 0; i < 40; i++ {
		vs = append(vs, los[len(los)-1]-int64(rng.Intn(10000)), int64(rng.Uint64()))
	}
	return vs
}

func TestArmTableCountsEachValueInItsArm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dense, wide := 0, 0
	for trial := 0; trial < 500; trial++ {
		los, arms := randomArms(rng)
		counts := make([]uint64, len(los))
		tbl := NewArmTable(los, arms, counts, 1, 0)
		if tbl.dense != nil {
			dense++
		} else {
			wide++
		}
		want := make([]uint64, len(los))
		for _, v := range probes(rng, los) {
			tbl.Count(v)
			want[naiveArm(los, arms, v)]++
		}
		for a := range want {
			if counts[a] != want[a] {
				t.Fatalf("bounds %v, arms %v: counts %v, want %v", los, arms, counts, want)
			}
		}
	}
	if dense < 100 || wide < 100 {
		t.Errorf("%d dense and %d wide tables; want both kinds exercised", dense, wide)
	}
}

func TestArmTableDenseUpToWindow(t *testing.T) {
	for _, c := range []struct {
		top   int64
		dense bool
	}{{armWindow - 1, true}, {armWindow, false}} {
		// The window runs from the second bound, 0, to the last, top.
		tbl := NewArmTable([]int64{math.MinInt64, 0, c.top}, []int{0, 1, 2}, make([]uint64, 3), 1, 0)
		if got := tbl.dense != nil; got != c.dense {
			t.Errorf("window of %d values: dense %v, want %v", c.top+1, got, c.dense)
		}
	}
}

func TestArmTableCountdownKeepsOneInRate(t *testing.T) {
	for _, rate := range []uint64{0, 1, 3, 8} {
		for first := uint64(0); first < max(rate, 1); first++ {
			counts := make([]uint64, 2)
			tbl := NewArmTable([]int64{math.MinInt64, 10}, []int{0, 1}, counts, rate, first)
			var want [2]uint64
			for k := uint64(0); k < 100; k++ {
				v := int64(k % 20)
				tbl.Count(v)
				if k%max(rate, 1) == first {
					want[naiveArm([]int64{math.MinInt64, 10}, []int{0, 1}, v)]++
				}
			}
			if counts[0] != want[0] || counts[1] != want[1] {
				t.Errorf("rate %d, first %d: counts %v, want %v", rate, first, counts, want)
			}
		}
	}
}
