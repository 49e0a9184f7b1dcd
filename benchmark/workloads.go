package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
)

// A workload is set up once per run, then driven pass after pass. A pass
// is one trip through every op of the workload; check then verifies,
// untimed, what the last passes produced.
type runner interface {
	pass(l *loop) error
	check(c *checker) (quality, error)
	close()
}

// workloads lists the workloads in the order a full run takes them.
// BENCHMARK.json and README.md say why each was chosen.
var workloads = []struct {
	name  string
	setup func(seed uint64) (runner, error)
}{
	{"paper-suite", setupSuite},
	{"compile", setupCompile},
	{"measure-long", setupMeasureLong},
	{"suite-warm", setupWarm},
}

// loop drives ops in a closed loop: one client, which issues the next op
// only when the previous one has returned.
type loop struct {
	tr     *tracer // nil on the production path
	ops    []time.Duration
	failed int
	engine bench.EngineStats // counters of the last untraced pass's engine
}

func (l *loop) op(f func() error) error {
	start := time.Now()
	var err error
	if l.tr != nil {
		err = l.tr.runOp(f)
	} else {
		err = f()
	}
	l.ops = append(l.ops, time.Since(start))
	if err != nil {
		l.failed++
	}
	return err
}

// render produces the text brbench prints for Tables 4-8 and Figures
// 11-13 from the 51 runs of a suite in bench.SuiteJobs order.
func render(runs []*bench.ProgramRun) (string, error) {
	sets := bench.Sets()
	n := len(runs) / len(sets)
	s := &bench.Suite{Runs: map[lower.HeuristicSet][]*bench.ProgramRun{}}
	for i, set := range sets {
		s.Runs[set] = runs[i*n : (i+1)*n]
	}
	var b strings.Builder
	for _, t := range []string{s.Table4(), s.Table5(), s.Table6(), s.Table7(), s.Table8()} {
		b.WriteString(t + "\n")
	}
	for f := 11; f <= 13; f++ {
		text, err := s.Figure(f)
		if err != nil {
			return "", err
		}
		b.WriteString(text + "\n")
	}
	return b.String(), nil
}

// renderOp renders the suite as one op of the pass.
func renderOp(l *loop, runs []*bench.ProgramRun) (text string, err error) {
	err = l.op(func() error {
		s := l.tr.begin("bench.render")
		defer l.tr.end(s)
		text, err = render(runs)
		return err
	})
	return text, err
}

// sameRun reports whether a traced run equals the production one.
func sameRun(traced, prod *bench.ProgramRun) error {
	if !reflect.DeepEqual(traced.Record(), prod.Record()) {
		return fmt.Errorf("%s (set %v): traced measurement differs from production", prod.Workload.Name, prod.Set)
	}
	if traced.Build != nil {
		return sameBuild(traced.Build, prod.Build)
	}
	return nil
}

func sameBuild(traced, prod *pipeline.BuildResult) error {
	if traced.Baseline.Dump() != prod.Baseline.Dump() || traced.Reordered.Dump() != prod.Reordered.Dump() {
		return errors.New("traced build differs from production")
	}
	return nil
}

// paper-suite: the cold brbench suite, 51 Engine.Get ops on a fresh
// memory-only engine plus the rendering of the tables and figures.
type suiteRunner struct {
	jobs       []bench.Job
	runs       []*bench.ProgramRun // the last untraced pass
	text       string
	traced     []*bench.ProgramRun // the last traced pass
	trained    []*pipeline.TrainProduct
	tracedText string
}

func setupSuite(seed uint64) (runner, error) {
	return &suiteRunner{jobs: bench.SuiteJobs(roster(seed))}, nil
}

func (s *suiteRunner) pass(l *loop) error {
	runs := make([]*bench.ProgramRun, len(s.jobs))
	if l.tr == nil {
		e := bench.NewEngine(1, nil)
		for i, j := range s.jobs {
			if err := l.op(func() (err error) {
				runs[i], err = e.Get(context.Background(), j.Workload, j.Opts)
				return err
			}); err != nil {
				return err
			}
		}
		l.engine = e.Stats()
		text, err := renderOp(l, runs)
		s.runs, s.text = runs, text
		return err
	}
	trained := make([]*pipeline.TrainProduct, len(s.jobs))
	for i, j := range s.jobs {
		if err := l.op(func() error {
			b, tp, err := l.tr.stagedBuild(j.Workload, j.Opts)
			if err != nil {
				return err
			}
			trained[i] = tp
			runs[i], err = l.tr.measureRun(j.Workload, j.Opts, b)
			return err
		}); err != nil {
			return err
		}
	}
	text, err := renderOp(l, runs)
	s.traced, s.trained, s.tracedText = runs, trained, text
	return err
}

func (s *suiteRunner) check(c *checker) (quality, error) {
	var q quality
	for _, r := range s.runs {
		if err := c.matches(r.Workload, r.Base, r.Reord); err != nil {
			return q, err
		}
		q.add(r.Base, r.Reord, r.StaticBase, r.StaticReord)
	}
	if err := c.golden(s.text); err != nil {
		return q, err
	}
	if s.traced == nil {
		return q, nil
	}
	if s.tracedText != s.text {
		return q, errors.New("traced rendering differs from production")
	}
	for i, j := range s.jobs {
		if err := sameRun(s.traced[i], s.runs[i]); err != nil {
			return q, err
		}
		front, err := pipeline.BuildFrontend(j.Workload.Source, j.Opts.Frontend())
		if err != nil {
			return q, err
		}
		tp, err := pipeline.TrainStage(front, bench.TrainInput(j.Workload, j.Opts), j.Opts.Detection())
		if err != nil {
			return q, err
		}
		if !reflect.DeepEqual(s.trained[i], tp) {
			return q, fmt.Errorf("%s (set %v): traced training product differs from pipeline.TrainStage", j.Workload.Name, j.Opts.Switch)
		}
	}
	return q, nil
}

func (s *suiteRunner) close() {}

// compile: 51 pipeline.Build calls, neither measured nor cached.
type compileRunner struct {
	jobs   []bench.Job
	builds []*pipeline.BuildResult // the last untraced pass
	traced []*pipeline.BuildResult // the last traced pass
}

func setupCompile(seed uint64) (runner, error) {
	return &compileRunner{jobs: bench.SuiteJobs(roster(seed))}, nil
}

func (s *compileRunner) pass(l *loop) error {
	builds := make([]*pipeline.BuildResult, len(s.jobs))
	for i, j := range s.jobs {
		if err := l.op(func() (err error) {
			if l.tr != nil {
				builds[i], err = l.tr.build(j.Workload, j.Opts)
			} else {
				builds[i], err = pipeline.Build(j.Workload.Source, bench.TrainInput(j.Workload, j.Opts), j.Opts)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if l.tr != nil {
		s.traced = builds
	} else {
		s.builds = builds
	}
	return nil
}

// check runs every build on its test input, which is also where the
// quality ratios of this workload come from.
func (s *compileRunner) check(c *checker) (quality, error) {
	var q quality
	for i, j := range s.jobs {
		b := s.builds[i]
		base, err := sim.Run(b.Baseline, j.Workload.Test(), nil)
		if err != nil {
			return q, err
		}
		reord, err := sim.Run(b.Reordered, j.Workload.Test(), nil)
		if err != nil {
			return q, err
		}
		if err := c.matches(j.Workload, base, reord); err != nil {
			return q, err
		}
		q.add(base, reord, pipeline.StaticInsts(b.Baseline, interp.DefaultIJmpInsts),
			pipeline.StaticInsts(b.Reordered, interp.DefaultIJmpInsts))
		if s.traced != nil {
			if err := sameBuild(s.traced[i], b); err != nil {
				return q, fmt.Errorf("%s (set %v): %w", j.Workload.Name, j.Opts.Switch, err)
			}
		}
	}
	return q, nil
}

func (s *compileRunner) close() {}

// measure-long: sim.Run of prebuilt Set-II executables, baseline and
// reordered, on inputs longCopies times the test input.
type longProg struct {
	name  string
	src   string
	input []byte
	progs [2]*ir.Program // baseline, reordered
}

type measureRunner struct {
	progs  []longProg
	ms     []*sim.Measurement // the last untraced pass, 2 per program
	traced []*sim.Measurement // the last traced pass
}

func setupMeasureLong(seed uint64) (runner, error) {
	s := &measureRunner{}
	for _, w := range roster(seed) {
		// Fixed arrays (600 lines, 800 keys, 800 lines) stop these
		// growing past one test input.
		if w.Name == "sort" || w.Name == "join" || w.Name == "sdiff" {
			continue
		}
		b, err := pipeline.Build(w.Source, w.Train(), bench.BaseOptions(lower.SetII))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		s.progs = append(s.progs, longProg{w.Name, w.Source, longInput(w, seed), [2]*ir.Program{b.Baseline, b.Reordered}})
	}
	return s, nil
}

func (s *measureRunner) pass(l *loop) error {
	ms := make([]*sim.Measurement, 2*len(s.progs))
	for i := range ms {
		p := s.progs[i/2]
		if err := l.op(func() (err error) {
			if l.tr != nil {
				ms[i], err = l.tr.measure(p.progs[i%2], p.input)
			} else {
				ms[i], err = sim.Run(p.progs[i%2], p.input, nil)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", p.name, err)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if l.tr != nil {
		s.traced = ms
	} else {
		s.ms = ms
	}
	return nil
}

func (s *measureRunner) check(c *checker) (quality, error) {
	var q quality
	for i, p := range s.progs {
		want, err := reference(p.src, p.input)
		if err != nil {
			return q, fmt.Errorf("%s: reference: %w", p.name, err)
		}
		base, reord := s.ms[2*i], s.ms[2*i+1]
		if err := want.matches(p.name, base, reord); err != nil {
			return q, err
		}
		q.add(base, reord, pipeline.StaticInsts(p.progs[0], interp.DefaultIJmpInsts),
			pipeline.StaticInsts(p.progs[1], interp.DefaultIJmpInsts))
		if s.traced != nil && (!reflect.DeepEqual(s.traced[2*i], base) || !reflect.DeepEqual(s.traced[2*i+1], reord)) {
			return q, fmt.Errorf("%s: traced measurement differs from sim.Run", p.name)
		}
	}
	return q, nil
}

func (s *measureRunner) close() {}

// suite-warm: the suite served from a disk store that setup filled with
// one cold suite. A pass is 51 Engine.Get ops on a fresh engine over that
// store plus the rendering of the tables and figures.
type warmRunner struct {
	jobs       []bench.Job
	dir        string
	disk       *store.Store
	coldText   string // the set-up's cold suite, rendered
	builds     int    // fresh builds over every warm pass
	runs       []*bench.ProgramRun
	text       string
	traced     []*bench.ProgramRun
	tracedText string
}

func setupWarm(seed uint64) (runner, error) {
	dir, err := os.MkdirTemp("", "benchmark-store-")
	if err != nil {
		return nil, err
	}
	s := &warmRunner{jobs: bench.SuiteJobs(roster(seed)), dir: dir}
	if s.disk, err = store.Open(dir); err != nil {
		s.close()
		return nil, err
	}
	e := bench.NewEngine(1, nil)
	e.UseStore(s.disk)
	cold := make([]*bench.ProgramRun, len(s.jobs))
	for i, j := range s.jobs {
		if cold[i], err = e.Get(context.Background(), j.Workload, j.Opts); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.coldText, err = render(cold); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *warmRunner) pass(l *loop) error {
	runs := make([]*bench.ProgramRun, len(s.jobs))
	var e *bench.Engine
	if l.tr == nil {
		e = bench.NewEngine(1, nil)
		e.UseStore(s.disk)
	}
	for i, j := range s.jobs {
		if err := l.op(func() (err error) {
			if e != nil {
				runs[i], err = e.Get(context.Background(), j.Workload, j.Opts)
			} else {
				runs[i], err = l.tr.storeGet(s.disk, j.Workload, j.Opts)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if e != nil {
		l.engine = e.Stats()
		s.builds += l.engine.Builds
	}
	text, err := renderOp(l, runs)
	if e != nil {
		s.runs, s.text = runs, text
	} else {
		s.traced, s.tracedText = runs, text
	}
	return err
}

func (s *warmRunner) check(c *checker) (quality, error) {
	var q quality
	if s.builds != 0 {
		return q, fmt.Errorf("warm passes built %d jobs; every job should come from the store", s.builds)
	}
	for _, r := range s.runs {
		if err := c.matches(r.Workload, r.Base, r.Reord); err != nil {
			return q, err
		}
		q.add(r.Base, r.Reord, r.StaticBase, r.StaticReord)
	}
	if s.text != s.coldText {
		return q, errors.New("warm rendering differs from the cold suite's")
	}
	if err := c.golden(s.text); err != nil {
		return q, err
	}
	if s.traced == nil {
		return q, nil
	}
	if s.tracedText != s.text {
		return q, errors.New("traced rendering differs from production")
	}
	for i := range s.jobs {
		if err := sameRun(s.traced[i], s.runs[i]); err != nil {
			return q, err
		}
	}
	return q, nil
}

func (s *warmRunner) close() { os.RemoveAll(s.dir) }
