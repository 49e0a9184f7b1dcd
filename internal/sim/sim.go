// Package sim measures an executable the way the paper's evaluation does:
// one interpreted run collects the dynamic instruction mix, feeds every
// branch to a battery of predictors (Tables 5 and 6), and derives cycle
// counts for each machine model (Table 7).
package sim

import (
	"fmt"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/machine"
	"branchreorder/internal/predictor"
)

// PredictorSweep is the (0,1)/(0,2) × 32..2048 battery of Table 6.
func PredictorSweep() []*predictor.Bimodal {
	var out []*predictor.Bimodal
	for _, bits := range []int{1, 2} {
		for entries := 32; entries <= 2048; entries *= 2 {
			out = append(out, predictor.NewBimodal(bits, entries))
		}
	}
	return out
}

// Measurement is the result of running one executable on one input.
type Measurement struct {
	Stats  interp.Stats
	Output string
	Ret    int64

	// Mispredicts maps predictor name (e.g. "(0,2)x2048") to the number
	// of mispredicted conditional branches.
	Mispredicts map[string]uint64

	// Cycles maps machine name to modelled execution cycles.
	Cycles map[string]uint64

	// Fusion reports the executable's superinstruction fusion (all zero
	// when decoded with fusion off). It describes the measurement
	// engine, not the measured program: Stats/Cycles are identical
	// either way.
	Fusion interp.FusionStats

	// Compile reports the closure compilation of the executable (all
	// zero unless the closure engine ran). Like Fusion it describes the
	// measurement engine, not the measured program.
	Compile interp.CompileStats
}

// Engine selects the execution backend for a measurement. All engines
// produce byte-identical Measurements; they differ only in wall-clock
// speed (and the engine-descriptive Fusion/Compile fields). The enum
// lives in interp — where the machines do — and is aliased here so
// measurement callers need only this package.
type Engine = interp.Engine

const (
	EngineFast      = interp.EngineFast
	EngineClosure   = interp.EngineClosure
	EngineReference = interp.EngineReference
)

// ParseEngine maps a command-line engine name to an Engine. The empty
// string selects the default fast engine.
func ParseEngine(s string) (Engine, error) { return interp.ParseEngine(s) }

// Options configures how a measurement executes. The zero value is the
// default (fused, fast-engine) configuration. Options never enters
// result fingerprints: engine selection must not invalidate caches,
// because results are engine-independent.
type Options struct {
	// NoFuse decodes without superinstruction fusion — the differential
	// debugging escape hatch (`brbench -no-fuse`). Results are
	// byte-identical either way; only wall-clock and Fusion change.
	NoFuse bool

	// Engine selects the execution backend.
	Engine Engine
}

// Run executes prog on input, simulating the given predictor specs (pass
// nil for the full Table 6 sweep) and deriving cycles for every machine
// model.
//
// Execution is on the flat-decoded fast engine (interp.Decode +
// interp.FastMachine); RunWith's Options.Engine selects the closure or
// reference backend instead. The whole predictor battery is simulated by
// one predictor.Bank pass per branch.
func Run(prog *ir.Program, input []byte, specs []predictor.Spec) (*Measurement, error) {
	return RunWith(prog, input, specs, Options{})
}

// RunWith is Run with explicit execution options.
func RunWith(prog *ir.Program, input []byte, specs []predictor.Spec, opts Options) (*Measurement, error) {
	var bank *predictor.Bank
	if specs == nil {
		bank = predictor.NewTable6Bank()
	} else {
		bank = predictor.NewBank(specs)
	}
	onBranch := bank.Observe
	var (
		stats   interp.Stats
		output  string
		ret     int64
		fusion  interp.FusionStats
		compile interp.CompileStats
	)
	switch opts.Engine {
	case EngineReference:
		m := &interp.Machine{Prog: prog, Input: input, OnBranch: onBranch}
		r, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		stats, output, ret = m.Stats, m.Output.String(), r
	case EngineClosure:
		code, err := interp.DecodeWith(prog, interp.DecodeOptions{Fuse: !opts.NoFuse})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		m := &interp.ClosureMachine{Code: code, Input: input, OnBranch: onBranch}
		r, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		stats, output, ret = m.Stats, m.Output.String(), r
		fusion, compile = code.FusionStats(), code.CompileStats()
	default:
		code, err := interp.DecodeWith(prog, interp.DecodeOptions{Fuse: !opts.NoFuse})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		m := &interp.FastMachine{Code: code, Input: input, OnBranch: onBranch}
		r, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		stats, output, ret = m.Stats, m.Output.String(), r
		fusion = code.FusionStats()
	}
	cfgs := machine.All()
	out := &Measurement{
		Stats:       stats,
		Output:      output,
		Ret:         ret,
		Cycles:      make(map[string]uint64, len(cfgs)),
		Mispredicts: bank.Mispredicts(),
		Fusion:      fusion,
		Compile:     compile,
	}
	for _, cfg := range cfgs {
		out.Cycles[cfg.Name] = Cycles(cfg, stats, out.Mispredicts)
	}
	return out, nil
}

// Cycles evaluates the machine timing model over a run's statistics.
func Cycles(cfg machine.Config, st interp.Stats, mispreds map[string]uint64) uint64 {
	cycles := st.Insts + st.IndirectJumps*cfg.IJmpExtra
	if cfg.DelaySlots {
		cycles += st.SlotNops
	}
	if cfg.StaticPipeline {
		cycles += st.TakenBranches * cfg.BranchPenalty
	} else {
		name := cfg.PredictorName
		if name == "" {
			name = fmt.Sprintf("(0,%d)x%d", cfg.PredictorBits, cfg.PredictorEntries)
		}
		cycles += mispreds[name] * cfg.BranchPenalty
	}
	return cycles
}
