package machine

import (
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/predictor"
)

func TestConfigsAreDistinctAndComplete(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("have %d machines, want the paper's 3", len(all))
	}
	names := map[string]bool{}
	bank := predictor.NewTable6Bank().Mispredicts()
	for _, c := range all {
		if names[c.Name] {
			t.Errorf("duplicate machine %q", c.Name)
		}
		names[c.Name] = true
		// Cycles reads the machine's mispredictions by this name, so a
		// name the bank does not simulate would read zero, not fail.
		if _, ok := bank[c.PredictorName]; !c.StaticPipeline && !ok {
			t.Errorf("%s: predictor %q is not in the Table 6 bank", c.Name, c.PredictorName)
		}
	}
	if UltraI.Switch != lower.SetII {
		t.Error("Ultra I must pair with Heuristic Set II (Table 2)")
	}
	if UltraI.IJmpExtra < 4*SPARCIPC.IJmpExtra {
		t.Error("Ultra I indirect jumps must be ~4x the IPC's (dual-loop result)")
	}
}
