package pipeline

import (
	"fmt"

	"branchreorder/internal/cminus"
	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/opt"
	"branchreorder/internal/profile"
)

// The staged build pipeline. Build runs the paper's Figure 2 scheme
// monolithically; the experiment engine (bench.Engine) instead composes
// it from three explicitly keyed stages, memoizing the first two by
// content, so identical work is done once and reused everywhere:
//
//	stage 1 (frontend):     lex/parse/check (Check), then lower/opt
//	                        (LowerChecked). The check is keyed by the
//	                        source alone; lowering by the source, the
//	                        switch plan the set gives it (lower.Plan) and
//	                        Optimize. Product: an immutable ir.Program
//	                        and its digest.
//	stage 2 (detect+train): sequence/common-successor detection,
//	                        instrumentation, and the training run — keyed
//	                        by (program digest, training input,
//	                        DetectOptions). Product: the serializable
//	                        profile counts.
//	stage 3 (finalize):     ordering selection, transformation, cleanup,
//	                        delay slots — the only stage that depends on
//	                        the full TransformOptions. Cheap, and every
//	                        variant differs.
//
// Detection is deterministic, so stages 2 and 3 re-detect identical
// sequences (same IDs, same arms) on fresh clones of the stage-1 program;
// the counts stage 2 collects line up index-for-index with the arms stage
// 3 rebuilds. That is the same separate-compilation discipline the
// explicit two-pass workflow (twopass.go) relies on. Composing the stages
// yields output byte-identical to the monolithic Build — CI-enforced.

// FrontendOptions is the subset of Options that determines the stage-1
// product. It is comparable, so it can key memos directly.
type FrontendOptions struct {
	Switch   lower.HeuristicSet
	Optimize bool
}

// Frontend returns the lowering-relevant subset of o — the stage-1 key.
func (o Options) Frontend() FrontendOptions {
	return FrontendOptions{Switch: o.Switch, Optimize: o.Optimize}
}

// DetectOptions is the subset of Options (beyond the frontend's) that
// determines the stage-2 product. The profile configuration belongs
// here: sampled or biased counts are a different product than exact
// ones, so they must never share a stage-2 key or store fingerprint.
// It is comparable, so it can key memos directly.
type DetectOptions struct {
	CommonSuccessor bool
	Profile         profile.Config
}

// Detection returns the detection-relevant subset of o — the stage-2 key
// (combined with the program digest and the training input).
func (o Options) Detection() DetectOptions {
	return DetectOptions{CommonSuccessor: o.CommonSuccessor, Profile: o.Profile}
}

// FrontendProduct is the stage-1 result. Prog is immutable by
// contract: every consumer must ir.CloneProgram it before mutating
// (detection instruments blocks in place, reordering rewrites them).
// SwitchKinds is likewise shared and must be treated as read-only.
// Digest is Prog.Digest(): products with equal digests lower to the same
// program, whichever source and options produced them.
type FrontendProduct struct {
	Prog        *ir.Program
	SwitchKinds map[lower.SwitchKind]int
	Digest      [32]byte
}

// BuildFrontend runs stage 1: parse, check, lower, optimize, linearize,
// verify. The result is the paper's "all conventional optimizations
// applied" baseline, wrapped as an immutable product.
func BuildFrontend(src string, fo FrontendOptions) (*FrontendProduct, error) {
	info, err := Check(src)
	if err != nil {
		return nil, err
	}
	return LowerChecked(info, fo)
}

// LowerChecked runs the rest of stage 1 on a program Check returned. It
// only reads info, and the heuristic set only through info's
// lower.Plan: options whose plans are equal give equal products.
func LowerChecked(info *cminus.Info, fo FrontendOptions) (*FrontendProduct, error) {
	res, err := lowerAndOptimize(info, fo)
	if err != nil {
		return nil, err
	}
	return &FrontendProduct{Prog: res.Prog, SwitchKinds: res.SwitchKinds, Digest: res.Prog.Digest()}, nil
}

// TrainProduct is the stage-2 result: the training-run counts for
// every detected sequence, plus the detection shape they were collected
// under so a finalize against a diverging detector fails loudly instead
// of silently misattributing counts. It is plain data, safe to share
// between concurrent finalizes.
type TrainProduct struct {
	SeqProfiles   map[int]*core.SeqProfile
	OrSeqProfiles map[int]*core.OrSeqProfile
	// NumSeqs and NumOrSeqs record how many sequences the detector found
	// (counts exist only for executed sequences, so map sizes are not
	// enough to validate against).
	NumSeqs   int
	NumOrSeqs int
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

// TrainStage runs stage 2 on a clone of the frontend product: detect
// both sequence kinds, instrument, and execute the training input,
// mirroring the monolithic Build's first pass exactly so the counts are
// identical to the ones an in-place build would collect.
func TrainStage(front *FrontendProduct, train []byte, d DetectOptions) (*TrainProduct, error) {
	return TrainStageWith(front, train, d, interp.EngineClosure)
}

// TrainStageWith is TrainStage on an explicit execution engine. All
// engines replay the exact same OnProf hook sequence, so the collected
// profile — and every build derived from it — is byte-identical for any
// choice; only the training run's wall-clock changes.
func TrainStageWith(front *FrontendProduct, train []byte, d DetectOptions, e interp.Engine) (*TrainProduct, error) {
	prog := ir.CloneProgram(front.Prog)
	seqs := core.Detect(prog, 0)
	for _, s := range seqs {
		s.BuildArms()
	}
	var orSeqs []*core.OrSequence
	if d.CommonSuccessor {
		orSeqs = core.DetectCommonSucc(prog, len(seqs), consumedBlocks(seqs))
	}
	prof := core.NewProfile(seqs)
	orProf := core.NewOrProfile(orSeqs)

	prog.Linearize()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}
	code, err := interp.Decode(prog)
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	// The sampler thins the event stream per d.Profile and scales the
	// surviving counts back to exact shape after the run; a zero config
	// leaves the hook untouched.
	sampler := profile.NewSampler(d.Profile, prof, orProf)
	if _, _, _, err := interp.Exec(e, prog, code, train, nil, sampler.Hook(profHook(prof, orProf))); err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	sampler.Scale()
	return &TrainProduct{
		SeqProfiles:   prof.Seqs,
		OrSeqProfiles: orProf.Seqs,
		NumSeqs:       len(seqs),
		NumOrSeqs:     len(orSeqs),
	}, nil
}

// FinalizeStages runs stage 3 on a fresh clone of the frontend product:
// re-detect the (identical) sequences, attach the trained counts, select
// and apply orderings, clean up, fill delay slots. The mutation sequence
// mirrors the monolithic Build step for step (including the
// post-instrumentation linearize+verify), so the resulting programs are
// byte-identical to an in-place build's.
func FinalizeStages(front *FrontendProduct, tp *TrainProduct, o Options) (*BuildResult, error) {
	kinds := make(map[lower.SwitchKind]int, len(front.SwitchKinds))
	for k, v := range front.SwitchKinds {
		kinds[k] = v
	}
	out := &BuildResult{
		Baseline:    ir.CloneProgram(front.Prog),
		SwitchKinds: kinds,
	}
	prog := ir.CloneProgram(front.Prog)
	out.Sequences = core.Detect(prog, 0)
	for _, s := range out.Sequences {
		s.BuildArms()
	}
	if o.CommonSuccessor {
		out.OrSequences = core.DetectCommonSucc(prog, len(out.Sequences), consumedBlocks(out.Sequences))
	}
	if len(out.Sequences) != tp.NumSeqs || len(out.OrSequences) != tp.NumOrSeqs {
		return nil, fmt.Errorf("stage mismatch: finalize detected %d/%d sequences, training saw %d/%d "+
			"(was the profile produced from the same source and options?)",
			len(out.Sequences), len(out.OrSequences), tp.NumSeqs, tp.NumOrSeqs)
	}
	out.Profile = &core.Profile{Seqs: tp.SeqProfiles}
	out.OrProfile = &core.OrProfile{Seqs: tp.OrSeqProfiles}

	prog.Linearize()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}

	for _, s := range out.Sequences {
		sp := tp.SeqProfiles[s.ID]
		if sp != nil && len(sp.Counts) != len(s.Arms) {
			return nil, fmt.Errorf("stage mismatch: profile for sequence %d has %d counts, expected %d",
				s.ID, len(sp.Counts), len(s.Arms))
		}
		out.Results = append(out.Results, core.ReorderWith(s, sp, o.Transform))
	}
	for _, s := range out.OrSequences {
		sp := tp.OrSeqProfiles[s.ID]
		if sp != nil && sp.N != len(s.Conds) {
			return nil, fmt.Errorf("stage mismatch: profile for or-sequence %d has %d conditions, expected %d",
				s.ID, sp.N, len(s.Conds))
		}
		out.OrResults = append(out.OrResults, core.ReorderOr(s, sp))
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
