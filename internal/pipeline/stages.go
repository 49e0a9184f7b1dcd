package pipeline

import (
	"fmt"

	"branchreorder/internal/cminus"
	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/profile"
)

// The staged build pipeline. Build runs the paper's Figure 2 scheme on
// one program; the experiment engine (bench.Engine) instead composes it
// from three explicitly keyed stages, memoizing the first two by
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
// Stages 2 and 3 run Build's own passes (detect, train and finalize in
// build.go) on clones of the stage-1 program: stage 2 detects and
// trains, stage 3 detects again and finalizes. Detection is
// deterministic, so stage 3 finds the sequences, IDs and arms stage 2
// counted, as the two-pass workflow's second pass (twopass.go) does for
// a profile file; composed, the stages give Build's output byte for
// byte, which the tests check over the roster.

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

// TrainProduct is the stage-2 result: the training-run counts of
// every detected sequence, plus the detection shape they were collected
// under, so a finalize against a diverging detector fails loudly instead
// of silently misattributing counts. It is plain data, safe to share
// between concurrent finalizes.
type TrainProduct struct {
	SeqProfiles   map[int]*core.SeqProfile
	OrSeqProfiles map[int]*core.OrSeqProfile
	// NumSeqs and NumOrSeqs record how many sequences of each kind the
	// detector found. The profile check lets a sequence go without
	// counts, as a profile file may, so it alone would not notice a
	// finalize that detects more sequences than training did.
	NumSeqs   int
	NumOrSeqs int
}

// TrainStage runs stage 2 on a clone of the frontend product: Build's
// detect and train passes, so the counts are the ones an in-place build
// collects.
func TrainStage(front *FrontendProduct, train []byte, d DetectOptions) (*TrainProduct, error) {
	return TrainStageWith(front, train, d, interp.EngineClosure)
}

// TrainStageWith is TrainStage on an explicit execution engine. All
// engines count the same profile, in the same arm tables and through
// the same OnProf events, so the collected profile — and every build
// derived from it — is byte-identical for any choice; only the training
// run's wall-clock changes.
func TrainStageWith(front *FrontendProduct, train []byte, d DetectOptions, e interp.Engine) (*TrainProduct, error) {
	var b BuildResult
	prog := ir.CloneProgram(front.Prog)
	if err := b.detect(prog, d.CommonSuccessor); err != nil {
		return nil, err
	}
	if err := b.train(prog, train, d.Profile, e); err != nil {
		return nil, err
	}
	return &TrainProduct{
		SeqProfiles:   b.Profile.Seqs,
		OrSeqProfiles: b.OrProfile.Seqs,
		NumSeqs:       len(b.Sequences),
		NumOrSeqs:     len(b.OrSequences),
	}, nil
}

// FinalizeStages runs stage 3: Build's detect and finalize passes on a
// clone of the frontend product, with the trained counts. The result's
// Baseline and SwitchKinds are the product's own, shared, not copies.
func FinalizeStages(front *FrontendProduct, tp *TrainProduct, o Options) (*BuildResult, error) {
	out := &BuildResult{Baseline: front.Prog, SwitchKinds: front.SwitchKinds}
	prog := ir.CloneProgram(front.Prog)
	if err := out.detect(prog, o.CommonSuccessor); err != nil {
		return nil, err
	}
	if len(out.Sequences) != tp.NumSeqs || len(out.OrSequences) != tp.NumOrSeqs {
		return nil, fmt.Errorf("stage mismatch: finalize detected %d/%d sequences, training saw %d/%d "+
			"(was the profile produced from the same source and options?)",
			len(out.Sequences), len(out.OrSequences), tp.NumSeqs, tp.NumOrSeqs)
	}
	out.Profile = &core.Profile{Seqs: tp.SeqProfiles}
	out.OrProfile = &core.OrProfile{Seqs: tp.OrSeqProfiles}
	if err := out.finalize(prog, o.Transform); err != nil {
		return nil, err
	}
	return out, nil
}
