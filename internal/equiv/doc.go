// Package equiv differentially tests the three execution engines
// against each other: the block-walking reference interpreter
// (interp.Machine), the flat-decoded fast engine (interp.Decode +
// interp.FastMachine, behind sim.Options{Engine: EngineFast}), and the
// closure-compiled engine (interp.ClosureMachine) that the measurement
// pipeline runs on by default.
//
// The contract under test is the one DESIGN.md states for the fast
// engine: on every program and input, both engines produce the same
// return value, output bytes, dynamic statistics, branch and profile
// event streams — and therefore the same per-predictor mispredict
// counts — whenever the run completes. Runs that trap must trap with
// the same runtime error, except that a step-limit abort is only
// required to be a step-limit-or-later abort on both sides (the fast
// engine charges the step budget block-granularly, so the abort point
// and hence partial output and statistics may differ).
//
// The closure engine is held to a stricter contract: it shares the fast
// engine's block-granular execution model exactly, so against the fast
// run of the same decode (fused or unfused, hooked or hook-free)
// everything must be identical — trap text and PC, trap-point
// statistics, and hook streams included.
//
// Two test layers enforce this: the full workload suite (baseline and
// reordered executables, measured end-to-end through sim.Run against a
// replica of the pre-rewrite measurement loop), and randomized IR
// programs from a CFG generator, on held-out and fuzzed inputs, with a
// go-fuzz entry point (FuzzEngines) for continued exploration.
package equiv
