package pipeline

import (
	"io"

	"branchreorder/internal/core"
)

// The explicit two-pass workflow of the paper's Figure 2, with the
// profile data stored in a file between the passes, as vpo's ease
// environment did. The first pass is BuildFrontend and TrainStage, whose
// product WriteProfile writes; the second, Finalize, compiles the source
// again and runs Build's detect and finalize passes with the counts
// core.ReadProfiles reads back. Detection is deterministic, so the
// second pass finds the same sequences, arms and IDs from the same
// source and options.

// WriteProfile writes a training product's counts as a profile data
// file.
func WriteProfile(w io.Writer, tp *TrainProduct) error {
	if err := (&core.Profile{Seqs: tp.SeqProfiles}).Write(w); err != nil {
		return err
	}
	return (&core.OrProfile{Seqs: tp.OrSeqProfiles}).Write(w)
}

// Finalize runs the second compilation pass: it recompiles the source,
// re-detects the (identical) sequences, and applies the reordering
// decisions under the stored profile data. Counts that do not fit the
// sequences the source has are an error.
func Finalize(src string, o Options, seqProfiles map[int]*core.SeqProfile, orProfiles map[int]*core.OrSeqProfile) (*BuildResult, error) {
	out, prog, err := detectSource(src, o)
	if err != nil {
		return nil, err
	}
	out.Profile = &core.Profile{Seqs: seqProfiles}
	out.OrProfile = &core.OrProfile{Seqs: orProfiles}
	if err := out.finalize(prog, o.Transform); err != nil {
		return nil, err
	}
	return out, nil
}
