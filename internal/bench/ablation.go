package bench

import (
	"context"
	"fmt"
	"strings"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

// Ablation studies for the transformation's design choices (DESIGN.md's
// per-experiment index): each variant disables one Section 7/8 mechanism
// and reports the dynamic cost the full transformation saves, plus the
// effect of the Section 10 common-successor extension.

// AblationVariant names one configuration.
type AblationVariant struct {
	Name string
	Opts pipeline.Options
}

// AblationVariants returns the studied configurations, full first.
func AblationVariants(set lower.HeuristicSet) []AblationVariant {
	base := BaseOptions(set)
	v := func(name string, mod func(*pipeline.Options)) AblationVariant {
		o := base
		mod(&o)
		return AblationVariant{Name: name, Opts: o}
	}
	return []AblationVariant{
		v("full", func(o *pipeline.Options) {}),
		v("no-bound-order", func(o *pipeline.Options) { o.Transform.NoBoundOrder = true }),
		v("no-cmp-reuse", func(o *pipeline.Options) { o.Transform.NoCmpReuse = true }),
		v("no-tail-dup", func(o *pipeline.Options) { o.Transform.NoTailDup = true }),
		v("+common-succ", func(o *pipeline.Options) { o.CommonSuccessor = true }),
	}
}

// AblationRow is one workload's dynamic instruction count per variant.
type AblationRow struct {
	Workload string
	Insts    map[string]uint64
	Baseline uint64
}

// AblationJobs enumerates the (workload × variant) grid in deterministic
// order — workloads outer, variants inner — the way SuiteJobs enumerates
// the standard matrix. The "full" variant's options equal BaseOptions, so
// its jobs share the standard evaluation builds' runs (and disk-store
// fingerprints).
func AblationJobs(set lower.HeuristicSet, ws []workload.Workload) []Job {
	variants := AblationVariants(set)
	jobs := make([]Job, 0, len(ws)*len(variants))
	for _, w := range ws {
		for _, v := range variants {
			jobs = append(jobs, Job{Workload: w, Opts: v.Opts})
		}
	}
	return jobs
}

// RunAblationWith measures every (workload, variant) pair on e's worker
// pool. The "full" variant's options equal the standard evaluation's,
// so running the ablation after the suite measures nothing again for
// it. Rows come back in workload order regardless of which build
// finishes first.
func RunAblationWith(ctx context.Context, e *Engine, set lower.HeuristicSet, ws []workload.Workload) ([]AblationRow, error) {
	variants := AblationVariants(set)
	jobs := AblationJobs(set, ws)
	grid := make([]*ProgramRun, len(jobs))
	err := e.gather(ctx, len(grid), func(ctx context.Context, i int) error {
		r, err := e.Get(ctx, jobs[i].Workload, jobs[i].Opts)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", jobs[i].Workload.Name, variants[i%len(variants)].Name, err)
		}
		grid[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(ws))
	for wi, w := range ws {
		row := AblationRow{Workload: w.Name, Insts: map[string]uint64{}}
		full := grid[wi*len(variants)]
		row.Baseline = full.Base.Stats.Insts
		for vi, v := range variants {
			r := grid[wi*len(variants)+vi]
			// Every run's reordered output already matched its own
			// baseline; requiring it to match the full variant's output
			// too makes the check transitive across variants.
			if r.Reord.Output != full.Reord.Output || r.Reord.Ret != full.Reord.Ret {
				return nil, fmt.Errorf("%s/%s: output diverged", w.Name, v.Name)
			}
			row.Insts[v.Name] = r.Reord.Stats.Insts
		}
		rows[wi] = row
	}
	return rows, nil
}

// AblationTable renders the study.
func AblationTable(set lower.HeuristicSet, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: dynamic instructions by disabled mechanism (Heuristic Set %v)\n\n", set)
	w := newTab(&sb)
	variants := AblationVariants(set)
	header := "Program\tbaseline\t"
	for _, v := range variants {
		header += v.Name + "\t"
	}
	fmt.Fprintln(w, header)
	for _, r := range rows {
		line := fmt.Sprintf("%s\t%d\t", r.Workload, r.Baseline)
		for _, v := range variants {
			line += fmt.Sprintf("%d\t", r.Insts[v.Name])
		}
		fmt.Fprintln(w, line)
	}
	w.Flush()
	return sb.String()
}
