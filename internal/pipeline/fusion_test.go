package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/randprog"
	"branchreorder/internal/workload"
)

// The superinstruction report (interp.Code.FusionStats) is pinned by
// digest over every program shape the suite decodes, so a change to how
// the report is computed cannot move it unseen. It moves only when the
// curated pattern set or the decoded code changes; a deliberate change
// re-records the constants and says why.
const (
	// suiteFusionDigest covers, for each of the 51 suite jobs (Sets
	// I-III over the roster), the baseline, and the instrumented and
	// reordered programs built without and with the common-successor
	// extension.
	suiteFusionDigest = "79699ccdf6b5c3ee3249893149e031eed641d391e282bb7191c7a509ba857e47"
	// randFusionDigest covers every randprog seed in [0, randEmitSeeds)
	// whose program verifies, as generated.
	randFusionDigest = "ac77e9261b4958cd58e23c4e4bf247d07b477eeeb44f66ddb7d0f8de24e0351a"
)

// writeFusion decodes p and appends its fusion report to buf.
func writeFusion(t *testing.T, buf []byte, label string, p *ir.Program) []byte {
	t.Helper()
	code, err := interp.Decode(p)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	b, err := json.Marshal(code.FusionStats())
	if err != nil {
		t.Fatal(err)
	}
	return append(append(buf, b...), '\n')
}

func TestFusionReportDigest(t *testing.T) {
	var reports []byte
	for _, set := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
		for _, w := range workload.All() {
			for _, commonSucc := range []bool{false, true} {
				label := w.Name + "/set" + set.String()
				o := Options{Switch: set, Optimize: true, CommonSuccessor: commonSucc}
				r, prog, err := detectSource(w.Source, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !commonSucc {
					reports = writeFusion(t, reports, label+"/baseline", r.Baseline)
				}
				reports = writeFusion(t, reports, label+"/instrumented", prog)
				if err := r.train(prog, w.Train(), o.Profile, interp.EngineClosure); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := r.finalize(prog, o.Transform); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reports = writeFusion(t, reports, label+"/reordered", r.Reordered)
			}
		}
	}
	if got := digestHex(reports); got != suiteFusionDigest {
		t.Errorf("suite fusion digest = %s, want %s", got, suiteFusionDigest)
	}

	reports = reports[:0]
	for seed := uint64(0); seed < randEmitSeeds; seed++ {
		p := randprog.New(seed)
		if p.Verify() != nil {
			continue
		}
		reports = binary.AppendUvarint(reports, seed)
		reports = writeFusion(t, reports, "randprog", p)
	}
	if got := digestHex(reports); got != randFusionDigest {
		t.Errorf("randprog fusion digest = %s, want %s", got, randFusionDigest)
	}
}

func digestHex(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}
