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
	// reordering — the "Original" measurements of Tables 4-8. It may be
	// a frontend product's program, shared with other builds, and must
	// not be mutated.
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

	// SwitchKinds may be shared like Baseline, and is read-only too.
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
	out, prog, err := detectSource(src, o)
	if err != nil {
		return nil, err
	}
	if err := out.train(prog, train, o.Profile, e); err != nil {
		return nil, err
	}
	if err := out.finalize(prog, o.Transform); err != nil {
		return nil, err
	}
	return out, nil
}

// The passes of Figure 2. They mutate prog, a program the caller owns,
// and record what they find in the BuildResult: Build and the two-pass
// Finalize run them on the frontend's program itself, TrainStage and
// FinalizeStages on clones of a shared FrontendProduct.

// detectSource runs the frontend on src and, after cloning its program
// as the Baseline, detect on that program in place.
func detectSource(src string, o Options) (*BuildResult, *ir.Program, error) {
	front, err := Frontend(src, o)
	if err != nil {
		return nil, nil, err
	}
	out := &BuildResult{Baseline: ir.CloneProgram(front.Prog), SwitchKinds: front.SwitchKinds}
	if err := out.detect(front.Prog, o.CommonSuccessor); err != nil {
		return nil, nil, err
	}
	return out, front.Prog, nil
}

// detect finds prog's reorderable sequences and builds their arms, then
// (with commonSucc) the common-successor sequences among the blocks
// those left unclaimed, and instruments, linearizes and verifies prog.
// Detection is deterministic, so every pass that detects on the same
// program finds the same sequences, IDs and arms.
func (r *BuildResult) detect(prog *ir.Program, commonSucc bool) error {
	r.Sequences = core.Detect(prog, 0)
	for _, s := range r.Sequences {
		s.BuildArms()
	}
	if commonSucc {
		r.OrSequences = core.DetectCommonSucc(prog, len(r.Sequences), consumedBlocks(r.Sequences))
	}
	prog.Linearize()
	if err := prog.Verify(); err != nil {
		return fmt.Errorf("verify after instrumentation: %w", err)
	}
	return nil
}

// consumedBlocks collects the blocks claimed by range-condition
// sequences, which take precedence over the common-successor extension.
func consumedBlocks(seqs []*core.Sequence) map[*ir.Block]bool {
	consumed := map[*ir.Block]bool{}
	for _, s := range seqs {
		consumed[s.Head] = true
		for _, c := range s.Conds {
			for _, b := range c.Blocks {
				consumed[b] = true
			}
		}
	}
	return consumed
}

// train runs prog, as detect instrumented it, on input under engine e,
// and records the counts of r's sequences as r.Profile and r.OrProfile.
// The sampler thins the event stream per pc and scales the surviving
// counts back to exact shape after the run; a zero config leaves the
// hook untouched.
func (r *BuildResult) train(prog *ir.Program, input []byte, pc profile.Config, e interp.Engine) error {
	r.Profile, r.OrProfile = core.NewProfile(r.Sequences), core.NewOrProfile(r.OrSequences)
	code, err := interp.Decode(prog)
	if err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	sampler := profile.NewSampler(pc, r.Profile, r.OrProfile)
	if _, _, _, err := interp.Exec(e, prog, code, input, nil,
		sampler.Hook(profHook(r.Profile, r.OrProfile))); err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	sampler.Scale()
	return nil
}

// profHook fuses the range- and or-profile hooks into the single OnProf
// callback the interpreter dispatches. Most builds have no
// common-successor sequences (the extension is off for the
// paper-fidelity experiments), so the merged two-closure dispatch is
// skipped whenever either side has nothing to count.
func profHook(prof *core.Profile, orProf *core.OrProfile) func(seqID, sub int, v int64) {
	rangeHook, orHook := prof.Hook(), orProf.Hook()
	switch {
	case len(prof.Seqs) == 0 && len(orProf.Seqs) == 0:
		return nil
	case len(orProf.Seqs) == 0:
		return rangeHook
	case len(prof.Seqs) == 0:
		return orHook
	default:
		return func(seqID, sub int, v int64) {
			rangeHook(seqID, sub, v)
			orHook(seqID, sub, v)
		}
	}
}

// finalize runs the second pass on prog, as detect left it: it checks
// r's profiles against r's sequences, reorders each sequence by its
// counts, strips the instrumentation, cleans up with the conventional
// optimizer, fills delay slots, and stores prog as r.Reordered.
func (r *BuildResult) finalize(prog *ir.Program, t core.TransformOptions) error {
	if err := r.checkProfile(); err != nil {
		return err
	}
	for _, s := range r.Sequences {
		r.Results = append(r.Results, core.ReorderWith(s, r.Profile.Seqs[s.ID], t))
	}
	for _, s := range r.OrSequences {
		r.OrResults = append(r.OrResults, core.ReorderOr(s, r.OrProfile.Seqs[s.ID]))
	}
	core.StripProf(prog)
	opt.Program(prog)
	prog.Linearize()
	prog.FillDelaySlots()
	if err := prog.Verify(); err != nil {
		return fmt.Errorf("verify after reordering: %w", err)
	}
	r.Reordered = prog
	return nil
}

// checkProfile rejects counts that do not fit r's sequences: an ID that
// no sequence of its kind has, or counts of the wrong length. A
// sequence without counts is no error: finalize leaves it as it leaves
// one the training input never ran.
func (r *BuildResult) checkProfile() error {
	const hint = "(was the profile produced from the same source and options?)"
	if id, ok := unknownID(r.Profile.Seqs, r.Sequences, func(s *core.Sequence) int { return s.ID }); ok {
		return fmt.Errorf("profile has counts for sequence %d, which the source does not have %s", id, hint)
	}
	if id, ok := unknownID(r.OrProfile.Seqs, r.OrSequences, func(s *core.OrSequence) int { return s.ID }); ok {
		return fmt.Errorf("profile has counts for or-sequence %d, which the source does not have %s", id, hint)
	}
	for _, s := range r.Sequences {
		if sp := r.Profile.Seqs[s.ID]; sp != nil && len(sp.Counts) != len(s.Arms) {
			return fmt.Errorf("profile for sequence %d has %d counts, expected %d %s",
				s.ID, len(sp.Counts), len(s.Arms), hint)
		}
	}
	for _, s := range r.OrSequences {
		if sp := r.OrProfile.Seqs[s.ID]; sp != nil && sp.N != len(s.Conds) {
			return fmt.Errorf("profile for or-sequence %d has %d conditions, expected %d %s",
				s.ID, sp.N, len(s.Conds), hint)
		}
	}
	return nil
}

// unknownID returns the smallest ID in profiles that no sequence in
// seqs has, if there is one.
func unknownID[P, S any](profiles map[int]P, seqs []S, id func(S) int) (int, bool) {
	known := make(map[int]bool, len(seqs))
	for _, s := range seqs {
		known[id(s)] = true
	}
	first, found := 0, false
	for i := range profiles {
		if !known[i] && (!found || i < first) {
			first, found = i, true
		}
	}
	return first, found
}
