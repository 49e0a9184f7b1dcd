// Package bench regenerates the paper's evaluation: Tables 3-8 and
// Figures 11-13. Each experiment builds the 17 workloads under the
// relevant switch heuristic set, measures baseline and reordered
// executables on the test inputs, and renders rows shaped like the
// paper's.
//
// Build+measure jobs run through Engine: a bounded worker pool whose
// build stages are memoized by content, so every table, figure and the
// ablation study share one set of builds, results aggregate in roster
// order regardless of completion order, and the first failure cancels
// the rest.
package bench

import (
	"errors"
	"fmt"
	"maps"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// TrainInput returns the input a build under opts trains on: the
// workload's training input normally, or the test input itself when the
// profile configuration asks for no train/test drift — the profile
// study's "how good could a perfectly fresh profile be" arm.
func TrainInput(w workload.Workload, opts pipeline.Options) []byte {
	if opts.Profile.Drift == profile.DriftNone {
		return w.Test()
	}
	return w.Train()
}

// SeqStat is one sequence's outcome in serializable form; see
// store.SeqStat.
type SeqStat = store.SeqStat

// ProgramRun is one workload built under one configuration and measured
// on its test input. Everything the tables and figures consume lives in
// the measurement and summary fields, so a run round-trips through the
// disk store; Build carries the compiled programs only for runs produced
// in this process.
type ProgramRun struct {
	Workload workload.Workload
	Set      lower.HeuristicSet
	Opts     pipeline.Options
	// Build is nil for runs loaded from the disk store: the compiled
	// programs are not persisted.
	Build *pipeline.BuildResult
	Base  *sim.Measurement
	Reord *sim.Measurement

	StaticBase  int64
	StaticReord int64

	// Seqs records every detected sequence's outcome in detection order.
	Seqs []SeqStat
}

// PctChange returns 100*(after/before - 1).
func PctChange(before, after uint64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (float64(after)/float64(before) - 1)
}

// Run builds and measures one workload under one heuristic set.
func Run(w workload.Workload, set lower.HeuristicSet) (*ProgramRun, error) {
	return RunOpts(w, BaseOptions(set))
}

// RunOpts builds and measures one workload under a full pipeline
// configuration (ablation variants and the Section 10 extension
// included), using the monolithic pipeline.Build. It is the serial
// oracle of Engine.Get and labels its errors the same way.
func RunOpts(w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	b, err := pipeline.Build(w.Source, TrainInput(w, opts), opts)
	var run *ProgramRun
	if err == nil {
		bl := newSlot[*sim.Measurement]()
		measureBaseline(bl, b.Baseline, w.Test(), sim.Options{})
		run, err = measureBuild(w, opts, b, bl, w.Test(), sim.Options{})
	}
	if err != nil {
		return nil, fmt.Errorf("%s (set %v): %w", w.Name, opts.Switch, err)
	}
	return run, nil
}

// measureBaseline measures prog on test into bl on a goroutine of its
// own: the paper's Original executable is the output of pass 1 (Figure
// 2), so measuring it needs neither the training run nor the
// reordering. prog must not change until bl is filled.
func measureBaseline(bl *slot[*sim.Measurement], prog *ir.Program, test []byte, mo sim.Options) {
	go func() { bl.fill(sim.RunWith(prog, test, nil, mo)) }()
}

// measureBuild measures the reordered executable of a finished build on
// test, joins the baseline measurement bl of the same test input, and
// assembles the ProgramRun every table and figure consumes. The
// baseline error wins over the reordered one, whichever ended first.
// Measured results are identical for any mo; only wall-clock and sim's
// engine-descriptive Fusion report, which no table or record keeps,
// change.
func measureBuild(w workload.Workload, opts pipeline.Options, b *pipeline.BuildResult, bl *slot[*sim.Measurement], test []byte, mo sim.Options) (*ProgramRun, error) {
	reord, rerr := sim.RunWith(b.Reordered, test, nil, mo)
	base, err := bl.wait()
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("reordered: %w", rerr)
	}
	if base.Output != reord.Output || base.Ret != reord.Ret {
		return nil, errors.New("reordered output differs from baseline")
	}
	seqs := make([]SeqStat, len(b.Results))
	for i, res := range b.Results {
		seqs[i] = SeqStat{
			Applied:      res.Applied,
			OrigBranches: res.OrigBranches,
			NewBranches:  res.NewBranches,
			Default:      -1,
		}
		// The selected ordering is only meaningful for applied
		// sequences; a skipped one would record the zero Ordering,
		// whose default target of 0 reads as a real arm.
		if res.Applied {
			seqs[i].Order = append([]int(nil), res.Ordering.Explicit...)
			seqs[i].Omitted = append([]int(nil), res.Ordering.Omitted...)
			seqs[i].Default = res.Ordering.DefaultTarget
		}
	}
	return &ProgramRun{
		Workload:    w,
		Set:         opts.Switch,
		Opts:        opts,
		Build:       b,
		Base:        base,
		Reord:       reord,
		StaticBase:  pipeline.StaticInsts(b.Baseline, interp.DefaultIJmpInsts),
		StaticReord: pipeline.StaticInsts(b.Reordered, interp.DefaultIJmpInsts),
		Seqs:        seqs,
	}, nil
}

// relabel returns r as the run of job (w, opts), whose program, inputs
// and options other than Switch equal r's. Measurements, static counts
// and sequence stats are shared read-only; Build is copied shallowly so it
// can carry kinds, the job's own switch census.
func (r *ProgramRun) relabel(w workload.Workload, opts pipeline.Options, kinds map[lower.SwitchKind]int) *ProgramRun {
	out := *r
	out.Workload, out.Set, out.Opts = w, opts.Switch, opts
	if r.Build != nil {
		b := *r.Build
		b.SwitchKinds = maps.Clone(kinds)
		out.Build = &b
	}
	return &out
}

// Suite holds every (heuristic set × workload) run; tables and figures
// are derived from it without re-running anything.
type Suite struct {
	Runs map[lower.HeuristicSet][]*ProgramRun
}

// AllRuns returns every run of the suite in deterministic matrix order
// (heuristic sets in presentation order, workloads in roster order) —
// the same order SuiteJobs enumerates.
func (s *Suite) AllRuns() []*ProgramRun {
	var out []*ProgramRun
	for _, set := range Sets() {
		out = append(out, s.Runs[set]...)
	}
	return out
}

// Sets lists the heuristic sets in presentation order.
func Sets() []lower.HeuristicSet {
	return []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
}

// TotalSeqs reports how many reorderable sequences were detected.
func (r *ProgramRun) TotalSeqs() int { return len(r.Seqs) }

// ReorderedSeqs reports how many sequences were actually reordered.
func (r *ProgramRun) ReorderedSeqs() int {
	n := 0
	for _, s := range r.Seqs {
		if s.Applied {
			n++
		}
	}
	return n
}

// AppliedSeqs returns the stats of the sequences that were reordered.
func (r *ProgramRun) AppliedSeqs() []SeqStat {
	var out []SeqStat
	for _, s := range r.Seqs {
		if s.Applied {
			out = append(out, s)
		}
	}
	return out
}

// Record converts the run to its serializable form for the disk store
// and the -json dump.
func (r *ProgramRun) Record() *store.Record {
	return &store.Record{
		Workload:    r.Workload.Name,
		Set:         int(r.Set),
		Opts:        r.Opts,
		Base:        store.FromSim(r.Base),
		Reord:       store.FromSim(r.Reord),
		StaticBase:  r.StaticBase,
		StaticReord: r.StaticReord,
		Seqs:        append([]SeqStat(nil), r.Seqs...),
	}
}

// RunFromRecord reconstitutes a run for workload w from its serialized
// form. Build is nil; every measurement and summary a table or figure
// consumes is restored exactly.
func RunFromRecord(rec *store.Record, w workload.Workload) (*ProgramRun, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if rec.Workload != w.Name {
		return nil, fmt.Errorf("bench: record is for workload %q, not %q", rec.Workload, w.Name)
	}
	return &ProgramRun{
		Workload:    w,
		Set:         lower.HeuristicSet(rec.Set),
		Opts:        rec.Opts,
		Base:        rec.Base.Sim(),
		Reord:       rec.Reord.Sim(),
		StaticBase:  rec.StaticBase,
		StaticReord: rec.StaticReord,
		Seqs:        append([]SeqStat(nil), rec.Seqs...),
	}, nil
}

// Records converts runs to their serializable form, preserving order.
func Records(runs []*ProgramRun) []*store.Record {
	out := make([]*store.Record, len(runs))
	for i, r := range runs {
		out[i] = r.Record()
	}
	return out
}
