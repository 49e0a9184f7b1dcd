package pipeline

import (
	"fmt"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/opt"
	"branchreorder/internal/profile"
)

// BuildResult carries both executables of the paper's comparison plus the
// per-sequence decisions.
type BuildResult struct {
	// Baseline has all conventional optimizations applied and no
	// reordering — the "Original" measurements of Tables 4-8.
	Baseline *ir.Program
	// Reordered additionally has the branch-reordering transformation
	// applied, trained on the training input.
	Reordered *ir.Program

	Sequences []*core.Sequence
	Results   []core.Result
	Profile   *core.Profile

	// Section 10 extension (Options.CommonSuccessor): sequences of
	// branches with a common successor, and what happened to them.
	OrSequences []*core.OrSequence
	OrResults   []core.OrResult
	OrProfile   *core.OrProfile

	SwitchKinds map[lower.SwitchKind]int
}

// TotalSeqs reports how many reorderable sequences were detected.
func (r *BuildResult) TotalSeqs() int { return len(r.Sequences) }

// ReorderedSeqs reports how many sequences were actually reordered.
func (r *BuildResult) ReorderedSeqs() int {
	n := 0
	for _, res := range r.Results {
		if res.Applied {
			n++
		}
	}
	return n
}

// Build runs the full two-pass scheme of Figure 2: compile with
// conventional optimizations, detect reorderable sequences, run the
// instrumented executable on the training input, select orderings, apply
// the transformation, and clean up.
func Build(src string, train []byte, o Options) (*BuildResult, error) {
	return BuildWith(src, train, o, interp.EngineClosure)
}

// BuildWith is Build with the training run on an explicit execution
// engine. Every engine replays the identical OnProf hook sequence, so
// the resulting build is byte-for-byte the same for any choice.
func BuildWith(src string, train []byte, o Options, e interp.Engine) (*BuildResult, error) {
	front, err := Frontend(src, o)
	if err != nil {
		return nil, err
	}
	out := &BuildResult{
		Baseline:    ir.CloneProgram(front.Prog),
		SwitchKinds: front.SwitchKinds,
	}

	prog := front.Prog
	out.Sequences = core.Detect(prog, 0)
	for _, s := range out.Sequences {
		s.BuildArms()
	}
	if o.CommonSuccessor {
		// Range-condition sequences take precedence; the extension only
		// sees what they left unclaimed.
		out.OrSequences = core.DetectCommonSucc(prog, len(out.Sequences), consumedBlocks(out.Sequences))
	}
	out.Profile = core.NewProfile(out.Sequences)
	out.OrProfile = core.NewOrProfile(out.OrSequences)

	// Training pass on the instrumented executable.
	prog.Linearize()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}
	code, err := interp.Decode(prog)
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	// Most builds have no common-successor sequences; profHook collapses
	// the merged two-closure dispatch to a single hook (or none) then.
	// Sampling mirrors TrainStage exactly so staged and monolithic builds
	// stay byte-identical under every profile configuration.
	sampler := profile.NewSampler(o.Profile, out.Profile, out.OrProfile)
	if _, _, _, err := interp.Exec(e, prog, code, train, nil,
		sampler.Hook(profHook(out.Profile, out.OrProfile))); err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	sampler.Scale()

	// Second pass: reorder each sequence that profits.
	for _, s := range out.Sequences {
		out.Results = append(out.Results, core.ReorderWith(s, out.Profile.Seqs[s.ID], o.Transform))
	}
	for _, s := range out.OrSequences {
		out.OrResults = append(out.OrResults, core.ReorderOr(s, out.OrProfile.Seqs[s.ID]))
	}
	core.StripProf(prog)
	opt.Program(prog)
	prog.Linearize()
	prog.FillDelaySlots()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after reordering: %w", err)
	}
	out.Reordered = prog
	return out, nil
}
