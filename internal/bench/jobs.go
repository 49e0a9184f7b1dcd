package bench

import (
	"context"

	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

// Job is one build+measure request of the evaluation matrix.
type Job struct {
	Workload workload.Workload
	Opts     pipeline.Options
}

// SuiteJobs enumerates the standard evaluation matrix — every heuristic
// set (in presentation order) × every workload (in the given order) —
// exactly as SuiteOf and Suite.AllRuns do.
func SuiteJobs(ws []workload.Workload) []Job {
	sets := Sets()
	jobs := make([]Job, 0, len(sets)*len(ws))
	for _, set := range sets {
		for _, w := range ws {
			jobs = append(jobs, Job{Workload: w, Opts: BaseOptions(set)})
		}
	}
	return jobs
}

// RunJobs builds and measures every job on the engine's worker pool,
// returning results in job order regardless of completion order. The
// first non-cancellation error cancels the remaining jobs.
func (e *Engine) RunJobs(ctx context.Context, jobs []Job) ([]*ProgramRun, error) {
	runs := make([]*ProgramRun, len(jobs))
	err := e.gather(ctx, len(jobs), func(ctx context.Context, i int) error {
		r, err := e.Get(ctx, jobs[i].Workload, jobs[i].Opts)
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
