// Package machine models the three SPARC generations of the paper's
// evaluation as simple timing configurations layered over the dynamic
// instruction counts of the interpreter.
//
// The paper calibrated real hardware with the dual-loop method and found
// indirect jumps on the SPARC Ultra I roughly four times as expensive as
// on the SPARC IPC or SPARC 20, which motivates Heuristic Set II. We
// reproduce that relationship as configuration parameters: cycles =
// instructions + branch-misprediction penalties + extra indirect-jump
// latency. Absolute cycle counts are not meaningful; ratios between the
// baseline and reordered executables are.
package machine

import "branchreorder/internal/lower"

// Config is one machine model.
type Config struct {
	Name string

	// Switch is the switch-translation heuristic set the front end used
	// for this machine in the paper (Table 2).
	Switch lower.HeuristicSet

	// BranchPenalty is the extra cycles per mispredicted conditional
	// branch (machines without dynamic prediction charge it per taken
	// branch instead — see StaticPipeline).
	BranchPenalty uint64

	// StaticPipeline marks machines without a dynamic predictor (IPC,
	// SS20): every taken branch pays BranchPenalty, untaken ones none.
	StaticPipeline bool

	// PredictorBits and PredictorEntries describe the dynamic predictor
	// used when StaticPipeline is false. PredictorName is the predictor's
	// precomputed display name ("(0,Bits)xEntries"), so the cycle model
	// does not re-format it on every evaluation.
	PredictorBits    int
	PredictorEntries int
	PredictorName    string

	// IJmpExtra is the extra latency per indirect jump beyond its
	// instruction cost.
	IJmpExtra uint64

	// DelaySlots charges one cycle per executed control transfer whose
	// delay slot holds a nop (all three SPARC generations expose a
	// single architectural delay slot).
	DelaySlots bool
}

// The three machines of the paper's evaluation.
var (
	// SPARCIPC: early scalar SPARC, shallow pipeline, no dynamic branch
	// prediction, cheap indirect jumps. Compiled with Heuristic Set I.
	SPARCIPC = Config{
		Name:           "SPARC IPC",
		Switch:         lower.SetI,
		BranchPenalty:  1,
		StaticPipeline: true,
		IJmpExtra:      2,
		DelaySlots:     true,
	}
	// SPARC20: superscalar SuperSPARC, still without the Ultra's deep
	// pipeline. Compiled with Heuristic Set I.
	SPARC20 = Config{
		Name:           "SPARC 20",
		Switch:         lower.SetI,
		BranchPenalty:  2,
		StaticPipeline: true,
		IJmpExtra:      2,
		DelaySlots:     true,
	}
	// UltraI: deep pipeline, (0,2) predictor with 2048 entries, indirect
	// jumps ~4x the IPC's. Compiled with Heuristic Set II.
	UltraI = Config{
		Name:             "SPARC Ultra I",
		Switch:           lower.SetII,
		BranchPenalty:    4,
		PredictorBits:    2,
		PredictorEntries: 2048,
		PredictorName:    "(0,2)x2048",
		IJmpExtra:        8,
		DelaySlots:       true,
	}
)

// All returns the evaluation machines in presentation order.
func All() []Config { return []Config{SPARCIPC, SPARC20, UltraI} }
