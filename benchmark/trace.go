package main

import (
	"fmt"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/cminus"
	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/opt"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// layers names the spans a traced op records, one per module boundary the
// harness calls across. An op's root span is "op"; its self time is
// harness overhead and counts as unattributed.
var layers = []string{
	"cminus", "lower", "opt", "ir", "core.detect", "core.reorder",
	"interp.decode", "interp.train", "interp.measure", "predictor", "sim.cycles",
	"store", "bench.record", "bench.render",
}

// span is one timed call. Times are nanoseconds since the trace began;
// Parent indexes the enclosing span, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and per-layer counters in memory. A nil *tracer
// records nothing, so code shared by the production and traced paths
// calls begin/end unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int
	op     int
	counts map[string]float64
	events []uint32 // the branch stream of the measurement in progress
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, counts: map[string]float64{}}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// runOp runs f under a new op's root span.
func (t *tracer) runOp(f func() error) error {
	t.op++
	root := t.begin("op")
	err := f()
	t.end(root)
	t.cur = -1 // a failed op may leave spans open
	return err
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// selfTimes returns each layer's total self time: its spans' durations
// minus the part their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// irInsts counts a program's instructions, terminators included.
func irInsts(p *ir.Program) float64 {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts) + 1
		}
	}
	return float64(n)
}

// The traced replays below issue the same public calls as the production
// functions named in their comments, one span per call into a layer.
// The correctness check holds their products equal to production's.

// frontend replays pipeline.Frontend.
func (t *tracer) frontend(src string, o pipeline.Options) (*pipeline.FrontendProduct, error) {
	t.count("cminus.src_kb", float64(len(src))/1024)
	s := t.begin("cminus")
	file, err := cminus.Parse(src)
	var info *cminus.Info
	if err == nil {
		info, err = cminus.Check(file)
	}
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	s = t.begin("lower")
	res, err := lower.Program(info, lower.Options{Switch: o.Switch})
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if res.Prog.Func("main") == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	t.count("lower.ir_insts", irInsts(res.Prog))
	if o.Optimize {
		s = t.begin("opt")
		opt.Program(res.Prog)
		t.end(s)
	}
	t.count("opt.ir_insts", irInsts(res.Prog))
	s = t.begin("ir")
	res.Prog.Linearize()
	res.Prog.FillDelaySlots()
	err = res.Prog.Verify()
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("verify after lowering: %w", err)
	}
	return &pipeline.FrontendProduct{Prog: res.Prog, SwitchKinds: res.SwitchKinds}, nil
}

func (t *tracer) clone(p *ir.Program) *ir.Program {
	s := t.begin("ir")
	defer t.end(s)
	return ir.CloneProgram(p)
}

// detect finds and instruments prog's sequences and readies it to run.
func (t *tracer) detect(prog *ir.Program) ([]*core.Sequence, error) {
	s := t.begin("core.detect")
	seqs := core.Detect(prog, 0)
	for _, q := range seqs {
		q.BuildArms()
	}
	t.end(s)
	t.count("core.detect.seqs", float64(len(seqs)))
	s = t.begin("ir")
	prog.Linearize()
	err := prog.Verify()
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}
	return seqs, nil
}

func (t *tracer) decode(prog *ir.Program) (*interp.Code, error) {
	s := t.begin("interp.decode")
	code, err := interp.Decode(prog)
	t.end(s)
	if err != nil {
		return nil, err
	}
	fs := code.FusionStats()
	t.count("interp.decode.ops", float64(fs.Ops))
	t.count("interp.decode.fused_ops", float64(fs.Inside))
	return code, nil
}

// train runs the instrumented prog on input, filling prof.
func (t *tracer) train(prog *ir.Program, prof *core.Profile, input []byte) error {
	code, err := t.decode(prog)
	if err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	var hook func(seqID, sub int, v int64)
	if len(prof.Seqs) > 0 {
		hook = prof.Hook()
	}
	s := t.begin("interp.train")
	_, st, _, err := interp.Exec(interp.EngineFast, prog, code, input, nil, hook)
	t.end(s)
	if err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	t.count("interp.train.insts", float64(st.Insts))
	return nil
}

// finish reorders the trained sequences of prog and cleans it up.
func (t *tracer) finish(prog *ir.Program, out *pipeline.BuildResult, topt core.TransformOptions) error {
	s := t.begin("core.reorder")
	t.count("core.reorder.tried", float64(len(out.Sequences)))
	for _, q := range out.Sequences {
		r := core.ReorderWith(q, out.Profile.Seqs[q.ID], topt)
		out.Results = append(out.Results, r)
		if r.Applied {
			t.count("core.reorder.applied", 1)
		}
	}
	core.StripProf(prog)
	t.end(s)
	s = t.begin("opt")
	opt.Program(prog)
	t.end(s)
	s = t.begin("ir")
	prog.Linearize()
	prog.FillDelaySlots()
	err := prog.Verify()
	t.end(s)
	if err != nil {
		return fmt.Errorf("verify after reordering: %w", err)
	}
	out.Reordered = prog
	return nil
}

// build replays pipeline.Build for options without the common-successor
// extension or profile sampling, as bench.BaseOptions gives them.
func (t *tracer) build(w workload.Workload, o pipeline.Options) (*pipeline.BuildResult, error) {
	front, err := t.frontend(w.Source, o)
	if err != nil {
		return nil, err
	}
	out := &pipeline.BuildResult{Baseline: t.clone(front.Prog), SwitchKinds: front.SwitchKinds}
	prog := front.Prog
	if out.Sequences, err = t.detect(prog); err != nil {
		return nil, err
	}
	out.Profile = core.NewProfile(out.Sequences)
	out.OrProfile = core.NewOrProfile(nil)
	if err := t.train(prog, out.Profile, bench.TrainInput(w, o)); err != nil {
		return nil, err
	}
	return out, t.finish(prog, out, o.Transform)
}

// stagedBuild replays pipeline.StageCache.Build on a cold cache: one
// frontend, pipeline.TrainStage, then pipeline.FinalizeStages.
func (t *tracer) stagedBuild(w workload.Workload, o pipeline.Options) (*pipeline.BuildResult, *pipeline.TrainProduct, error) {
	front, err := t.frontend(w.Source, o)
	if err != nil {
		return nil, nil, err
	}
	prog := t.clone(front.Prog)
	seqs, err := t.detect(prog)
	if err != nil {
		return nil, nil, err
	}
	prof := core.NewProfile(seqs)
	if err := t.train(prog, prof, bench.TrainInput(w, o)); err != nil {
		return nil, nil, err
	}
	tp := &pipeline.TrainProduct{
		SeqProfiles:   prof.Seqs,
		OrSeqProfiles: map[int]*core.OrSeqProfile{},
		NumSeqs:       len(seqs),
	}

	kinds := make(map[lower.SwitchKind]int, len(front.SwitchKinds))
	for k, v := range front.SwitchKinds {
		kinds[k] = v
	}
	out := &pipeline.BuildResult{Baseline: t.clone(front.Prog), SwitchKinds: kinds}
	prog = t.clone(front.Prog)
	if out.Sequences, err = t.detect(prog); err != nil {
		return nil, nil, err
	}
	out.Profile = &core.Profile{Seqs: tp.SeqProfiles}
	out.OrProfile = &core.OrProfile{Seqs: tp.OrSeqProfiles}
	return out, tp, t.finish(prog, out, o.Transform)
}

// measure replays sim.Run with the Table 6 predictor sweep, except that
// the branch stream is recorded during execution and replayed through
// the predictor bank afterwards, so the predictor has a span of its own.
func (t *tracer) measure(prog *ir.Program, input []byte) (*sim.Measurement, error) {
	code, err := t.decode(prog)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	t.events = t.events[:0]
	m := &interp.FastMachine{Code: code, Input: input, OnBranch: func(id int, taken bool) {
		e := uint32(id) << 1
		if taken {
			e |= 1
		}
		t.events = append(t.events, e)
	}}
	s := t.begin("interp.measure")
	ret, err := m.Run()
	output := m.Output.String()
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	t.count("interp.measure.insts", float64(m.Stats.Insts))
	t.count("interp.measure.branches", float64(len(t.events)))

	s = t.begin("predictor")
	bank := predictor.NewTable6Bank()
	for _, e := range t.events {
		bank.Observe(int(e>>1), e&1 != 0)
	}
	mispredicts := bank.Mispredicts()
	t.end(s)

	s = t.begin("sim.cycles")
	cfgs := machine.All()
	cycles := make(map[string]uint64, len(cfgs))
	for _, cfg := range cfgs {
		cycles[cfg.Name] = sim.Cycles(cfg, m.Stats, mispredicts)
	}
	t.end(s)
	return &sim.Measurement{
		Stats: m.Stats, Output: output, Ret: ret,
		Mispredicts: mispredicts, Cycles: cycles, Fusion: code.FusionStats(),
	}, nil
}

// measureRun measures both executables of b on w's test input and
// assembles the ProgramRun the tables consume, as bench.Engine.Get does
// for a fresh build.
func (t *tracer) measureRun(w workload.Workload, o pipeline.Options, b *pipeline.BuildResult) (*bench.ProgramRun, error) {
	base, err := t.measure(b.Baseline, w.Test())
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", w.Name, err)
	}
	reord, err := t.measure(b.Reordered, w.Test())
	if err != nil {
		return nil, fmt.Errorf("%s reordered: %w", w.Name, err)
	}
	s := t.begin("bench.record")
	defer t.end(s)
	if base.Output != reord.Output || base.Ret != reord.Ret {
		return nil, fmt.Errorf("%s (set %v): reordered output differs from baseline", w.Name, o.Switch)
	}
	seqs := make([]bench.SeqStat, len(b.Results))
	for i, r := range b.Results {
		seqs[i] = bench.SeqStat{Applied: r.Applied, OrigBranches: r.OrigBranches, NewBranches: r.NewBranches, Default: -1}
		if r.Applied {
			seqs[i].Order = append([]int(nil), r.Ordering.Explicit...)
			seqs[i].Omitted = append([]int(nil), r.Ordering.Omitted...)
			seqs[i].Default = r.Ordering.DefaultTarget
		}
	}
	return &bench.ProgramRun{
		Workload: w, Set: o.Switch, Opts: o, Build: b, Base: base, Reord: reord,
		StaticBase:  pipeline.StaticInsts(b.Baseline, interp.DefaultIJmpInsts),
		StaticReord: pipeline.StaticInsts(b.Reordered, interp.DefaultIJmpInsts),
		Seqs:        seqs,
	}, nil
}

// storeGet replays bench.Engine.Get served from the disk tier.
func (t *tracer) storeGet(disk *store.Store, w workload.Workload, o pipeline.Options) (*bench.ProgramRun, error) {
	s := t.begin("store")
	fp := store.Fingerprint(w.Source, bench.TrainInput(w, o), w.Test(), o)
	rec, st := disk.Get(fp)
	t.end(s)
	t.count("store.gets", 1)
	if st != store.Hit {
		return nil, fmt.Errorf("%s (set %v): store entry missing", w.Name, o.Switch)
	}
	t.count("store.hits", 1)
	s = t.begin("bench.record")
	defer t.end(s)
	return bench.RunFromRecord(rec, w)
}
