// Package sim measures an executable the way the paper's evaluation does:
// one interpreted run collects the dynamic instruction mix, feeds every
// branch to a battery of predictors (Tables 5 and 6), and derives cycle
// counts for each machine model (Table 7).
//
// The run is on the closure engine by default. The machine logs branch
// events into chunks; Run gathers the chunks into batches and hands each
// full batch to one goroutine that replays it through the predictor
// bank, so prediction overlaps execution on a second core. The one
// consumer sees the events in execution order, so the counts are those a
// synchronous replay gives. Machines, banks and batches are pooled
// across runs.
package sim

import (
	"fmt"
	"sync"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/machine"
	"branchreorder/internal/predictor"
)

// PredictorSweep is the (0,1)/(0,2) × 32..2048 battery of Table 6.
func PredictorSweep() []*predictor.Bimodal {
	var out []*predictor.Bimodal
	for _, bits := range []int{1, 2} {
		for entries := 32; entries <= 2048; entries *= 2 {
			out = append(out, predictor.NewBimodal(bits, entries))
		}
	}
	return out
}

// Measurement is the result of running one executable on one input.
type Measurement struct {
	Stats  interp.Stats
	Output string
	Ret    int64

	// Mispredicts maps predictor name (e.g. "(0,2)x2048") to the number
	// of mispredicted conditional branches.
	Mispredicts map[string]uint64

	// Cycles maps machine name to modelled execution cycles.
	Cycles map[string]uint64

	// Fusion reports where the curated superinstruction patterns occur
	// in the decoded executable (interp.Code.FusionStats; all zero under
	// the reference engine, which decodes nothing). It describes the
	// decoded code, not the measured run: nothing executes a
	// superinstruction, so Stats and Cycles do not depend on it, and
	// store records do not keep it.
	Fusion interp.FusionStats
}

// Options configures how a measurement executes. The zero value is the
// default (closure-engine) configuration. Options never enters result
// fingerprints: engine selection must not invalidate caches, because
// results are engine-independent.
type Options struct {
	// Engine selects the execution backend. Both engines produce the
	// same Stats, Output, Ret, Mispredicts and Cycles and differ only in
	// wall-clock speed (and in Fusion, which only the decoding closure
	// engine reports).
	Engine interp.Engine
}

// Run executes prog on input, simulating the given predictor specs (pass
// nil for the full Table 6 sweep) and deriving cycles for every machine
// model.
//
// Execution is on the closure engine (interp.Decode +
// interp.ClosureMachine); RunWith's Options.Engine selects the
// reference backend instead. Both engines record the branch stream in
// chunks (OnBranches); the chunks are gathered into batches that one
// goroutine replays through a predictor.Bank while execution goes on.
// Run is safe for concurrent use: each call takes its own machine, bank
// and batches from a pool and returns them when it is done.
func Run(prog *ir.Program, input []byte, specs []predictor.Spec) (*Measurement, error) {
	return RunWith(prog, input, specs, Options{})
}

// RunWith is Run with explicit execution options.
func RunWith(prog *ir.Program, input []byte, specs []predictor.Spec, opts Options) (*Measurement, error) {
	r := runners.Get().(*runner)
	defer runners.Put(r)
	return r.measure(prog, input, specs, opts)
}

// batchEvents is the size of one replay batch: 4 machine chunks, 16K
// events (64 KB). Larger batches replayed no faster and held more memory.
const batchEvents = 4 * interp.BranchChunk

// nBatches is the number of batch buffers a run cycles through: one
// filling, one queued and one replaying.
const nBatches = 3

// runner is the reusable state of one measurement: the closure engine's
// machine, the Table-6 bank and the replay batches. Every field
// that refers to the measured program is cleared when the run ends, so
// the pool keeps no program alive.
type runner struct {
	clos       interp.ClosureMachine
	table6     *predictor.Bank
	onBranches func(events []uint32) // r.add, bound once

	bank  *predictor.Bank // this run's bank
	batch []uint32        // the batch being filled
	// free holds the empty batches and full the batches to replay, in
	// order. Each has room for all nBatches, so no put ever blocks; the
	// producer waits only on free, for the consumer to return a batch.
	free chan []uint32
	full chan []uint32 // nil until the run's first batch fills
	done chan struct{} // closed when the replay goroutine has drained full
}

var runners = sync.Pool{New: func() any {
	r := &runner{table6: predictor.NewTable6Bank(), free: make(chan []uint32, nBatches)}
	r.onBranches = r.add
	r.batch = make([]uint32, 0, batchEvents)
	for i := 1; i < nBatches; i++ {
		r.free <- make([]uint32, 0, batchEvents)
	}
	return r
}}

func (r *runner) measure(prog *ir.Program, input []byte, specs []predictor.Spec, opts Options) (*Measurement, error) {
	r.bank = r.table6
	if specs != nil {
		r.bank = predictor.NewBank(specs)
	} else {
		r.bank.Reset()
	}
	stats, output, ret, fusion, err := r.exec(prog, input, opts)
	r.drain()
	mispredicts := r.bank.Mispredicts()
	r.bank = nil
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cfgs := machine.All()
	out := &Measurement{
		Stats:       stats,
		Output:      output,
		Ret:         ret,
		Cycles:      make(map[string]uint64, len(cfgs)),
		Mispredicts: mispredicts,
		Fusion:      fusion,
	}
	for _, cfg := range cfgs {
		out.Cycles[cfg.Name] = Cycles(cfg, stats, out.Mispredicts)
	}
	return out, nil
}

// exec runs prog on the selected engine, feeding every branch chunk to
// r.add.
func (r *runner) exec(prog *ir.Program, input []byte, opts Options) (interp.Stats, string, int64, interp.FusionStats, error) {
	if opts.Engine == interp.EngineReference {
		m := &interp.Machine{Prog: prog, Input: input, OnBranches: r.onBranches}
		ret, err := m.Run()
		return m.Stats, m.Output.String(), ret, interp.FusionStats{}, err
	}
	code, err := interp.Decode(prog)
	if err != nil {
		return interp.Stats{}, "", 0, interp.FusionStats{}, err
	}
	m := &r.clos
	m.Code, m.Input, m.OnBranches = code, input, r.onBranches
	ret, err := m.Run()
	m.Code, m.Input, m.OnBranches = nil, nil, nil
	return m.Stats, m.Output.String(), ret, code.FusionStats(), err
}

// add appends one machine chunk to the batch being filled. Every chunk
// but a run's last holds exactly interp.BranchChunk events, so a batch
// fills exactly; a full batch goes to the replay goroutine, started on
// the first, and the next batch comes off the free list.
func (r *runner) add(events []uint32) {
	r.batch = append(r.batch, events...)
	if len(r.batch) < batchEvents {
		return
	}
	if r.full == nil {
		r.full, r.done = make(chan []uint32, nBatches), make(chan struct{})
		go replay(r.bank, r.full, r.free, r.done)
	}
	r.full <- r.batch
	r.batch = (<-r.free)[:0]
}

// replay observes each batch in order and returns it to the free list.
func replay(bank *predictor.Bank, full <-chan []uint32, free chan<- []uint32, done chan<- struct{}) {
	for b := range full {
		bank.Replay(b)
		free <- b
	}
	close(done)
}

// drain joins the replay goroutine, if the run started one, and then
// replays the last, partial batch, so the bank has seen every event in
// order.
func (r *runner) drain() {
	if r.full != nil {
		close(r.full)
		<-r.done
		r.full, r.done = nil, nil
	}
	r.bank.Replay(r.batch)
	r.batch = r.batch[:0]
}

// Cycles evaluates the machine timing model over a run's statistics.
func Cycles(cfg machine.Config, st interp.Stats, mispreds map[string]uint64) uint64 {
	cycles := st.Insts + st.IndirectJumps*cfg.IJmpExtra + st.SlotNops
	if cfg.StaticPipeline {
		cycles += st.TakenBranches * cfg.BranchPenalty
	} else {
		cycles += mispreds[cfg.PredictorName] * cfg.BranchPenalty
	}
	return cycles
}
