package interp

import (
	"bytes"
	"fmt"
	"sync"

	"branchreorder/internal/ir"
)

// Engine names one of the package's two execution backends. Both give
// the same Output, return value, hook sequences and trap text, and the
// same Stats on every completed run, so the choice never affects
// results, only wall-clock speed. The zero value is the closure engine,
// the package's default backend for measurement, training and brcc.
type Engine int

const (
	// EngineClosure is the closure-compiled backend (ClosureMachine):
	// each decoded function is translated once into a graph of
	// pre-bound closures executed past the dispatch loop.
	EngineClosure Engine = iota
	// EngineReference is the block-walking reference interpreter
	// (Machine), the slow semantic baseline and the oracle the closure
	// engine is tested against.
	EngineReference
)

// The two declarations below give the closure engine the names of the
// flat-decoded interpreter it replaced. They are a bridge for the
// benchmark module's trace, which still uses those names: the benchmark
// change that moves the trace onto the production engine deletes them,
// and nothing in this module uses them.
type FastMachine = ClosureMachine

const EngineFast = EngineClosure

func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "closure"
}

// BranchChunk is the number of events one OnBranches chunk holds: each
// machine collects branch events into a chunk of this many (16 KB),
// allocated on its first hooked Run and reused by later ones.
const BranchChunk = 4096

// MaxBranchID is the largest branch ID a branch event can carry: an
// event packs the ID above the taken bit (see BranchEvent), so IDs must
// lie in [0, 2^31). Decode rejects a program with a conditional branch
// outside that range.
const MaxBranchID = 1<<31 - 1

// BranchEvent encodes one executed conditional branch as OnBranches
// delivers it: uint32(id)<<1 | taken, taken being 1 if the branch was
// taken. id must lie in [0, MaxBranchID]; the event decodes as
// id = int(e>>1), taken = e&1 == 1. The engines store the same
// encoding from the branch's taken bit directly.
func BranchEvent(id int, taken bool) uint32 {
	e := uint32(id) << 1
	if taken {
		e |= 1
	}
	return e
}

// branchLog is a machine's chunk of undelivered branch events. While on,
// the engines store each event into it inline (add is cheap enough to
// inline into every branch body) and flush it whenever it fills; Run
// flushes the rest before returning, on every path.
type branchLog struct {
	on         bool
	buf        *[BranchChunk]uint32
	n          int
	onBranch   func(id int, taken bool)
	onBranches func(events []uint32)
}

// start readies the log for a run that delivers to the given hooks and
// turns it on if either is set, allocating the chunk on first use.
// onBranch receives the events one by one at each flush; the reference
// Machine, which calls OnBranch as each branch executes, passes nil.
func (l *branchLog) start(onBranch func(id int, taken bool), onBranches func(events []uint32)) {
	l.on = onBranch != nil || onBranches != nil
	l.onBranch, l.onBranches = onBranch, onBranches
	l.n = 0
	if l.on && l.buf == nil {
		l.buf = new([BranchChunk]uint32)
	}
}

// add appends one event and reports whether the chunk is now full.
func (l *branchLog) add(ev uint32) bool {
	l.buf[l.n&(BranchChunk-1)] = ev
	l.n++
	return l.n == BranchChunk
}

// finish flushes the last events of a run and drops the hooks, so a
// machine kept for reuse holds no reference to their consumers.
func (l *branchLog) finish() {
	l.flush()
	l.onBranch, l.onBranches = nil, nil
}

// flush delivers the pending events, if any, in order — one by one to
// onBranch, then as one chunk to onBranches — and empties the chunk.
func (l *branchLog) flush() {
	if l.n == 0 {
		return
	}
	events := l.buf[:l.n]
	l.n = 0
	if l.onBranch != nil {
		for _, e := range events {
			l.onBranch(int(e>>1), e&1 == 1)
		}
	}
	if l.onBranches != nil {
		l.onBranches(events)
	}
}

// ParseEngine maps a command-line engine name to an Engine. The empty
// string selects the default closure engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "closure":
		return EngineClosure, nil
	case "reference":
		return EngineReference, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want closure or reference)", s)
}

// closureMachines recycles Exec's and Train's closure machines, so their
// arenas and output buffers outlive one run.
var closureMachines = sync.Pool{New: func() any { return new(ClosureMachine) }}

// Exec runs prog once under the selected engine with the given hooks
// and returns the run's result, statistics and program output. The
// reference engine walks prog directly; the closure engine executes
// code, decoding prog when code is nil. Exec is the one-shot form of CLI
// execution (training runs use Train); callers that need the decoded
// code's fusion report decode it themselves. The returned output is the
// caller's to keep.
func Exec(e Engine, prog *ir.Program, code *Code, input []byte,
	onBranch func(id int, taken bool), onProf func(seqID, sub int, value int64)) (int64, Stats, []byte, error) {
	if e == EngineReference {
		m := &Machine{Prog: prog, Input: input, OnBranch: onBranch, OnProf: onProf}
		ret, err := m.Run()
		return ret, m.Stats, m.Output.Bytes(), err
	}
	if code == nil {
		var err error
		code, err = Decode(prog)
		if err != nil {
			return 0, Stats{}, nil, err
		}
	}
	m := closureMachines.Get().(*ClosureMachine)
	m.Code, m.Input, m.OnBranch, m.OnProf = code, input, onBranch, onProf
	ret, err := m.Run()
	st, out := m.Stats, bytes.Clone(m.Output.Bytes())
	m.Code, m.Input, m.OnBranch, m.OnProf = nil, nil, nil, nil
	closureMachines.Put(m)
	return ret, st, out, err
}

// Train is the training run: it runs prog once under engine e, the
// closure engine running code, prog's decoding, on a pooled machine.
// The tables count their sequences' Prof events in place and onProf
// observes every other profiling event. Training keeps only the counts,
// so Train returns only the run's error.
func Train(e Engine, prog *ir.Program, code *Code, input []byte,
	tables []*ArmTable, onProf func(seqID, sub int, value int64)) error {
	if e == EngineReference {
		m := &Machine{Prog: prog, Input: input, ArmTables: tables, OnProf: onProf}
		_, err := m.Run()
		return err
	}
	m := closureMachines.Get().(*ClosureMachine)
	m.Code, m.Input, m.ArmTables, m.OnProf = code, input, tables, onProf
	_, err := m.Run()
	m.Code, m.Input, m.ArmTables, m.OnProf = nil, nil, nil, nil
	closureMachines.Put(m)
	return err
}
