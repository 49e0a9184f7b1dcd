// Package pipeline orchestrates the two-pass compilation scheme of the
// paper's Figure 2:
//
//	pass 1: C source → conventional optimizations → detect reorderable
//	        sequences → instrumented executable → run on training input
//	        → profile data
//	pass 2: same front-end output + profile data → select orderings →
//	        apply the reordering transformation → cleanup → executable
//
// The Build function runs the whole scheme and returns both the baseline
// executable (conventional optimizations only) and the reordered one, plus
// the static report the evaluation tables need.
package pipeline

import (
	"fmt"

	"branchreorder/internal/cminus"
	"branchreorder/internal/core"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/opt"
	"branchreorder/internal/profile"
)

// Options configures a build.
type Options struct {
	// Switch selects the switch-translation heuristic set (Table 2).
	Switch lower.HeuristicSet
	// Optimize applies the conventional optimization pipeline. It is on
	// in every experiment; turning it off exists for debugging.
	Optimize bool
	// CommonSuccessor additionally detects and reorders sequences of
	// branches with a common successor (the paper's Section 10
	// extension, Figure 14). Off for the paper-fidelity experiments.
	CommonSuccessor bool
	// Transform disables individual design choices of the reordering
	// transformation for ablation studies; the zero value is the full
	// transformation.
	Transform core.TransformOptions
	// Profile configures the profile lifecycle — sampled collection,
	// training-input drift, and cross-input merging with decay. The zero
	// value is the paper's exact single-input profile and leaves every
	// build byte-identical to a pipeline without the field.
	Profile profile.Config
}

// Frontend parses, checks and lowers source, returning an optimized,
// linearized, verified program — the paper's "all conventional
// optimizations applied" baseline. Like BuildFrontend, it is Check
// followed by lowerAndOptimize.
func Frontend(src string, o Options) (*lower.Result, error) {
	info, err := Check(src)
	if err != nil {
		return nil, err
	}
	return lowerAndOptimize(info, o.Frontend())
}

// Check runs the frontend's first step, parse and semantic analysis. Its
// product depends on the source alone, and every later step only reads
// it, so one checked program may be lowered under any options, from any
// number of goroutines at once.
func Check(src string) (*cminus.Info, error) {
	file, err := cminus.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := cminus.Check(file)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return info, nil
}

// lowerAndOptimize runs the frontend's second step on a checked
// program: lower, optimize, linearize, fill delay slots and verify.
func lowerAndOptimize(info *cminus.Info, fo FrontendOptions) (*lower.Result, error) {
	res, err := lower.Program(info, lower.Options{Switch: fo.Switch})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if res.Prog.Func("main") == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	if fo.Optimize {
		opt.Program(res.Prog)
	}
	res.Prog.Linearize()
	res.Prog.FillDelaySlots()
	if err := res.Prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after lowering: %w", err)
	}
	return res, nil
}

// StaticInsts counts the static instructions of a linearized program under
// the same cost model the interpreter charges dynamically: one per
// ordinary instruction, one per conditional branch, one per goto that
// cannot fall through, ijmpInsts per indirect jump plus one word per jump
// table entry, one per return. Prof and Nop cost zero.
func StaticInsts(p *ir.Program, ijmpInsts int64) int64 {
	var n int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				switch b.Insts[i].Op {
				case ir.Prof, ir.ProfCond, ir.Nop:
				default:
					n++
				}
			}
			switch b.Term.Kind {
			case ir.TermBr, ir.TermRet:
				n++
			case ir.TermGoto:
				if b.Term.Taken.LayoutIndex != b.LayoutIndex+1 {
					n++
				}
			case ir.TermIJmp:
				n += ijmpInsts + int64(len(b.Term.Targets))
			}
		}
	}
	return n
}
