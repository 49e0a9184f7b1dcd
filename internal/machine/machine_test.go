package machine

import (
	"testing"

	"branchreorder/internal/lower"
)

func TestConfigsAreDistinctAndComplete(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("have %d machines, want the paper's 3", len(all))
	}
	names := map[string]bool{}
	for _, c := range all {
		if names[c.Name] {
			t.Errorf("duplicate machine %q", c.Name)
		}
		names[c.Name] = true
		if !c.StaticPipeline && (c.PredictorBits == 0 || c.PredictorEntries == 0) {
			t.Errorf("%s: dynamic predictor unspecified", c.Name)
		}
	}
	if UltraI.Switch != lower.SetII {
		t.Error("Ultra I must pair with Heuristic Set II (Table 2)")
	}
	if UltraI.IJmpExtra < 4*SPARCIPC.IJmpExtra {
		t.Error("Ultra I indirect jumps must be ~4x the IPC's (dual-loop result)")
	}
}
