package pipeline

import (
	"fmt"
	"io"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	optimize "branchreorder/internal/opt"
)

// The explicit two-pass workflow of the paper's Figure 2, with the
// profile data externalized between the passes (Build performs both
// passes in memory; these entry points let a driver store the profile in
// a file, as vpo's ease environment did). Detection is deterministic, so
// the second pass recomputes the same sequences, arms, and IDs from the
// same source and options.

// Instrumented is the product of the first compilation pass: an
// executable with profiling instrumentation at every detected sequence
// head.
type Instrumented struct {
	Prog        *ir.Program
	Sequences   []*core.Sequence
	OrSequences []*core.OrSequence

	// Exec selects the execution engine for Train. Profiles are
	// byte-identical under every engine; the zero value is the closure
	// engine.
	Exec interp.Engine
}

// Instrument runs the first pass: compile, optimize, detect, instrument.
func Instrument(src string, o Options) (*Instrumented, error) {
	front, err := Frontend(src, o)
	if err != nil {
		return nil, err
	}
	ins := &Instrumented{Prog: front.Prog}
	ins.Sequences = core.Detect(ins.Prog, 0)
	for _, s := range ins.Sequences {
		s.BuildArms()
	}
	if o.CommonSuccessor {
		consumed := consumedBlocks(ins.Sequences)
		ins.OrSequences = core.DetectCommonSucc(ins.Prog, len(ins.Sequences), consumed)
	}
	ins.Prog.Linearize()
	if err := ins.Prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}
	return ins, nil
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

// Train executes the instrumented program on the training input and
// returns the collected profiles.
func (ins *Instrumented) Train(input []byte) (*core.Profile, *core.OrProfile, error) {
	prof := core.NewProfile(ins.Sequences)
	orProf := core.NewOrProfile(ins.OrSequences)
	code, err := interp.Decode(ins.Prog)
	if err != nil {
		return nil, nil, fmt.Errorf("training run: %w", err)
	}
	if _, _, _, err := interp.Exec(ins.Exec, ins.Prog, code, input, nil,
		profHook(prof, orProf)); err != nil {
		return nil, nil, fmt.Errorf("training run: %w", err)
	}
	return prof, orProf, nil
}

// WriteProfile serializes both profiles to one stream.
func WriteProfile(w io.Writer, prof *core.Profile, orProf *core.OrProfile) error {
	if prof != nil {
		if err := prof.Write(w); err != nil {
			return err
		}
	}
	if orProf != nil {
		if err := orProf.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// Finalize runs the second compilation pass: it recompiles the source,
// re-detects the (identical) sequences, and applies the reordering
// decisions under the stored profile data. A profile entry for a
// sequence the source does not have is an error.
func Finalize(src string, o Options, seqProfiles map[int]*core.SeqProfile, orProfiles map[int]*core.OrSeqProfile) (*BuildResult, error) {
	front, err := Frontend(src, o)
	if err != nil {
		return nil, err
	}
	out := &BuildResult{
		Baseline:    ir.CloneProgram(front.Prog),
		SwitchKinds: front.SwitchKinds,
	}
	prog := front.Prog
	// Detection must mirror the first pass exactly (both kinds before
	// any transformation), so sequence IDs and arms line up with the
	// stored counts.
	out.Sequences = core.Detect(prog, 0)
	for _, s := range out.Sequences {
		s.BuildArms()
	}
	if o.CommonSuccessor {
		out.OrSequences = core.DetectCommonSucc(prog, len(out.Sequences), consumedBlocks(out.Sequences))
	}
	seqIDs := map[int]bool{}
	for _, s := range out.Sequences {
		seqIDs[s.ID] = true
	}
	if id, ok := unknownID(seqProfiles, seqIDs); ok {
		return nil, fmt.Errorf("profile has counts for sequence %d, which the source does not have "+
			"(was the profile produced from the same source and options?)", id)
	}
	orIDs := map[int]bool{}
	for _, s := range out.OrSequences {
		orIDs[s.ID] = true
	}
	if id, ok := unknownID(orProfiles, orIDs); ok {
		return nil, fmt.Errorf("profile has counts for or-sequence %d, which the source does not have "+
			"(was the profile produced from the same source and options?)", id)
	}
	for _, s := range out.Sequences {
		sp := seqProfiles[s.ID]
		if sp != nil && len(sp.Counts) != len(s.Arms) {
			return nil, fmt.Errorf("profile for sequence %d has %d counts, expected %d "+
				"(was the profile produced from the same source and options?)",
				s.ID, len(sp.Counts), len(s.Arms))
		}
		out.Results = append(out.Results, core.ReorderWith(s, sp, o.Transform))
	}
	for _, s := range out.OrSequences {
		sp := orProfiles[s.ID]
		if sp != nil && sp.N != len(s.Conds) {
			return nil, fmt.Errorf("profile for or-sequence %d has %d conditions, expected %d",
				s.ID, sp.N, len(s.Conds))
		}
		out.OrResults = append(out.OrResults, core.ReorderOr(s, sp))
	}
	core.StripProf(prog)
	optimize.Program(prog)
	prog.Linearize()
	prog.FillDelaySlots()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after reordering: %w", err)
	}
	out.Reordered = prog
	return out, nil
}

// unknownID returns the smallest ID in profiles that known lacks, if
// there is one.
func unknownID[P any](profiles map[int]P, known map[int]bool) (int, bool) {
	first, found := 0, false
	for id := range profiles {
		if !known[id] && (!found || id < first) {
			first, found = id, true
		}
	}
	return first, found
}
