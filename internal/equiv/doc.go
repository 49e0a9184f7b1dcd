// Package equiv differentially tests the two execution engines against
// each other: the block-walking reference interpreter (interp.Machine),
// the oracle, and the closure-compiled engine (interp.Decode +
// interp.ClosureMachine) that the measurement pipeline runs on.
//
// The contract under test is the one DESIGN.md states for the closure
// engine: on every program and input, both engines produce the same
// return value, output bytes, dynamic statistics, branch and profile
// event streams — and therefore the same per-predictor mispredict
// counts — whenever the run completes. Runs that trap must trap with
// the same runtime error, except that a step-limit abort is only
// required to be a step-limit-or-later abort on both sides (the closure
// engine charges the step budget block-granularly, so the abort point
// and hence partial output and statistics may differ).
//
// Between its own runs the closure engine is held to a stricter
// contract: on the fused and the unfused decode, hooked or hook-free,
// everything must be identical — trap text and PC, trap-point
// statistics, and hook streams included.
//
// Two test layers enforce this: the full workload suite (baseline and
// reordered executables, measured end-to-end through sim.Run against a
// replica of the pre-rewrite measurement loop), and randomized IR
// programs from a CFG generator, on held-out and fuzzed inputs, with a
// go-fuzz entry point (FuzzEngines) for continued exploration.
package equiv
