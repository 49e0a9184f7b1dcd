package bench

import (
	"context"
	"fmt"
	"strings"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
	"branchreorder/internal/workload"
)

// The profile-quality study: how much selection quality survives
// sampled collection and train/test drift. For every workload it builds
// an exact reference (sample rate 1) and sampled variants at the given
// rates, under two drift arms — training on the training input as the
// paper does ("train→test"), and training on the test input itself
// ("test→test", the freshest profile a build could ever have). Each
// sampled build is scored against its drift arm's exact reference on
// how often it selects the same Theorem-3 ordering and Figure-8 default
// choice, and on the modelled cycle cost of the divergences.

// ProfileStudyDrifts lists the drift arms in presentation order.
func ProfileStudyDrifts() []profile.Drift {
	return []profile.Drift{profile.DriftCross, profile.DriftNone}
}

// ProfileStudyOptions is the build configuration of one study cell. The
// study runs the paper's main evaluation set (Set II). Rate 1 is the
// exact reference: sampling is withheld so the row is byte-identical to
// a plain build — only the drift axis remains.
func ProfileStudyOptions(drift profile.Drift, rate int, seed uint64) pipeline.Options {
	o := BaseOptions(lower.SetII)
	o.Profile = profile.Config{Drift: drift}
	if rate > 1 {
		o.Profile.Mode = profile.EveryNth
		o.Profile.Rate = rate
		o.Profile.Seed = seed
	}
	return o
}

// ProfileStudyJobs enumerates the study grid in deterministic order —
// workloads outer, drift arms middle, rates inner. Rates must include 1:
// every drift arm needs its reference.
func ProfileStudyJobs(ws []workload.Workload, rates []int, seed uint64) []Job {
	drifts := ProfileStudyDrifts()
	jobs := make([]Job, 0, len(ws)*len(drifts)*len(rates))
	for _, w := range ws {
		for _, drift := range drifts {
			for _, rate := range rates {
				jobs = append(jobs, Job{Workload: w, Opts: ProfileStudyOptions(drift, rate, seed)})
			}
		}
	}
	return jobs
}

// ProfileStudyRow scores one (workload, drift, rate) cell against the
// exact reference of the same workload and drift arm.
type ProfileStudyRow struct {
	Workload     string
	Drift        profile.Drift
	Rate         int
	Seqs         int     // sequences compared
	Defaults     int     // reference sequences with a Figure-8 default choice
	OrderAgree   float64 // % of sequences selecting the reference's exact ordering
	DefaultAgree float64 // % of Figure-8 default choices preserved
	CycleDelta   float64 // % modelled cycle delta vs the reference build
}

// cycleModel is the machine whose modelled cycles the study scores;
// the SPARC Ultra I is the paper's primary evaluation machine.
const cycleModel = "SPARC Ultra I"

// scoreStudyRun compares a sampled run against its exact reference.
func scoreStudyRun(ref, r *ProgramRun, rate int) ProfileStudyRow {
	row := ProfileStudyRow{
		Workload: ref.Workload.Name,
		Drift:    ref.Opts.Profile.Drift,
		Rate:     rate,
		Seqs:     len(ref.Seqs),
	}
	orderMatch, defMatch := 0, 0
	for i, want := range ref.Seqs {
		var got SeqStat
		if i < len(r.Seqs) {
			got = r.Seqs[i]
		}
		if got.Applied == want.Applied && got.Default == want.Default &&
			intsEqual(got.Order, want.Order) && intsEqual(got.Omitted, want.Omitted) {
			orderMatch++
		}
		// The Figure-8 default choice exists only where the reference
		// omitted arms behind a default target.
		if want.Applied && want.Default >= 0 {
			row.Defaults++
			if got.Applied && got.Default == want.Default {
				defMatch++
			}
		}
	}
	row.OrderAgree = 100
	if row.Seqs > 0 {
		row.OrderAgree = 100 * float64(orderMatch) / float64(row.Seqs)
	}
	row.DefaultAgree = 100
	if row.Defaults > 0 {
		row.DefaultAgree = 100 * float64(defMatch) / float64(row.Defaults)
	}
	row.CycleDelta = PctChange(ref.Reord.Cycles[cycleModel], r.Reord.Cycles[cycleModel])
	return row
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunProfileStudyWith builds the study grid on e's worker pool and
// scores every cell. Rows come back in grid order regardless of which
// build finishes first, so the rendered table is byte-identical across
// -j values.
func RunProfileStudyWith(ctx context.Context, e *Engine, ws []workload.Workload, rates []int, seed uint64) ([]ProfileStudyRow, error) {
	hasRef := false
	for _, r := range rates {
		if r == 1 {
			hasRef = true
		} else if r < 1 {
			return nil, fmt.Errorf("bench: invalid sample rate %d", r)
		}
	}
	if !hasRef {
		return nil, fmt.Errorf("bench: profile study needs rate 1 (the exact reference)")
	}
	jobs := ProfileStudyJobs(ws, rates, seed)
	grid := make([]*ProgramRun, len(jobs))
	err := e.gather(ctx, len(grid), func(ctx context.Context, i int) error {
		r, err := e.Get(ctx, jobs[i].Workload, jobs[i].Opts)
		if err != nil {
			return fmt.Errorf("profile study %s: %w", jobs[i].Workload.Name, err)
		}
		grid[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	drifts := ProfileStudyDrifts()
	rows := make([]ProfileStudyRow, 0, len(jobs))
	for wi := range ws {
		for di := range drifts {
			cell := func(ri int) *ProgramRun {
				return grid[(wi*len(drifts)+di)*len(rates)+ri]
			}
			refIdx := -1
			for ri, rate := range rates {
				if rate == 1 {
					refIdx = ri
				}
			}
			ref := cell(refIdx)
			for ri, rate := range rates {
				rows = append(rows, scoreStudyRun(ref, cell(ri), rate))
			}
		}
	}
	return rows, nil
}

// ProfileStudyTable renders the study: selection quality by sample rate
// and train/test drift.
func ProfileStudyTable(rows []ProfileStudyRow) string {
	var sb strings.Builder
	sb.WriteString("Profile quality: sampled collection vs the exact profile (Heuristic Set II)\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Program\tdrift\trate\tseqs\torder agree\tdefault agree\tcycle delta\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t1/%d\t%d\t%.1f%%\t%.1f%%\t%+.2f%%\t\n",
			r.Workload, r.Drift, r.Rate, r.Seqs, r.OrderAgree, r.DefaultAgree, r.CycleDelta)
	}
	w.Flush()
	return sb.String()
}
