package interp

import (
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/ir"
)

// streamEngine runs a program with both branch hooks set and returns
// the OnBranch stream, encoded with BranchEvent, the chunks OnBranches
// received (copied), and the run's error text.
type streamEngine struct {
	name string
	run  func(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) (events []uint32, chunks [][]uint32, errText string)
}

// streamEngines covers both engines and both decodes: the reference
// Machine, and ClosureMachine fused and unfused.
var streamEngines = []streamEngine{
	{"reference", func(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) ([]uint32, [][]uint32, string) {
		var r streamRecorder
		m := &Machine{Prog: p, Input: input, MaxSteps: maxSteps, OnBranch: r.onBranch, OnBranches: r.onBranches}
		_, err := m.Run()
		return r.events, r.chunks, errText(err)
	}},
	{"closure", closureStreamEngine(DecodeOptions{Fuse: true})},
	{"closure-nofuse", closureStreamEngine(DecodeOptions{})},
}

func closureStreamEngine(opts DecodeOptions) func(*testing.T, *ir.Program, []byte, uint64) ([]uint32, [][]uint32, string) {
	return func(t *testing.T, p *ir.Program, input []byte, maxSteps uint64) ([]uint32, [][]uint32, string) {
		t.Helper()
		code, err := DecodeWith(p, opts)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var r streamRecorder
		m := &ClosureMachine{Code: code, Input: input, MaxSteps: maxSteps, OnBranch: r.onBranch, OnBranches: r.onBranches}
		_, err = m.Run()
		return r.events, r.chunks, errText(err)
	}
}

// referenceStream is the oracle: the reference Machine's OnBranch
// stream, called as each branch executes, with no OnBranches set.
func referenceStream(p *ir.Program, maxSteps uint64) []uint32 {
	var r streamRecorder
	m := &Machine{Prog: p, MaxSteps: maxSteps, OnBranch: r.onBranch}
	m.Run()
	return r.events
}

type streamRecorder struct {
	events []uint32
	chunks [][]uint32
}

func (r *streamRecorder) onBranch(id int, taken bool) {
	r.events = append(r.events, BranchEvent(id, taken))
}

func (r *streamRecorder) onBranches(events []uint32) {
	r.chunks = append(r.chunks, slices.Clone(events))
}

func errText(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

// checkChunks demands that the chunks concatenate to the OnBranch
// stream, that every chunk but the last is full and that none is empty.
func checkChunks(t *testing.T, label string, events []uint32, chunks [][]uint32) {
	t.Helper()
	if got := slices.Concat(chunks...); !slices.Equal(got, events) {
		t.Errorf("%s: chunks carry %d events, OnBranch saw %d, or their order differs",
			label, len(got), len(events))
	}
	for i, c := range chunks {
		if len(c) == 0 || len(c) > BranchChunk || (i < len(chunks)-1 && len(c) != BranchChunk) {
			t.Errorf("%s: chunk %d of %d holds %d events", label, i, len(chunks), len(c))
		}
	}
}

// trapAfterLoopProg counts r0 from 0 to n through a compare/branch loop
// — n+1 branch events — then divides by zero.
func trapAfterLoopProg(n int64) *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Mov, Dst: 0, A: ir.Imm(0)}}
	entry.Term = ir.Term{Kind: ir.TermGoto, Taken: head}
	head.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.R(0), B: ir.Imm(n)}}
	head.Term = ir.Term{Kind: ir.TermBr, Rel: ir.GE, Taken: exit, Next: body}
	body.Insts = []ir.Inst{{Op: ir.Add, Dst: 0, A: ir.R(0), B: ir.Imm(1)}}
	body.Term = ir.Term{Kind: ir.TermGoto, Taken: head}
	exit.Insts = []ir.Inst{{Op: ir.Div, Dst: 0, A: ir.R(0), B: ir.Imm(0)}}
	exit.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
	p.Funcs = []*ir.Func{f}
	p.Linearize()
	return p
}

// TestBranchChunks runs streams shorter than a chunk, an exact multiple
// of it, one event past it, a trapped run and a step-limit abort on
// every engine with both hooks set. Both must carry the reference
// Machine's per-event stream — ClosureMachine delivers OnBranch from
// its chunks too — in full chunks but the last, which arrives before
// Run returns.
func TestBranchChunks(t *testing.T) {
	cases := []struct {
		name     string
		prog     *ir.Program
		maxSteps uint64
		events   int // -1: depends on the engine's abort point
		chunks   int
		err      string
	}{
		{"short", countLoopProg(10), 0, 11, 1, ""},
		{"exact-multiple", countLoopProg(2*BranchChunk - 1), 0, 2 * BranchChunk, 2, ""},
		{"one-past", countLoopProg(BranchChunk), 0, BranchChunk + 1, 2, ""},
		{"trap", trapAfterLoopProg(BranchChunk + 100), 0, BranchChunk + 101, 2, "division by zero"},
		{"step-limit", countLoopProg(1 << 20), 30000, -1, -1, "exceeded step limit 30000"},
	}
	for _, c := range cases {
		want := referenceStream(c.prog, c.maxSteps)
		for _, e := range streamEngines {
			label := c.name + "/" + e.name
			events, chunks, errText := e.run(t, c.prog, nil, c.maxSteps)
			if (c.err == "") != (errText == "") || !strings.Contains(errText, c.err) {
				t.Errorf("%s: error %q, want %q", label, errText, c.err)
			}
			checkChunks(t, label, events, chunks)
			if c.events < 0 {
				// The closure engine's step budget is block-granular,
				// so only the reference must abort where the oracle did.
				if len(events) <= BranchChunk || (e.name == "reference" && !slices.Equal(events, want)) {
					t.Errorf("%s: aborted after %d events (oracle %d), want more than one chunk",
						label, len(events), len(want))
				}
				continue
			}
			if !slices.Equal(events, want) || len(events) != c.events || len(chunks) != c.chunks {
				t.Errorf("%s: %d events in %d chunks, want the reference's %d (%d) in %d",
					label, len(events), len(chunks), len(want), c.events, c.chunks)
			}
		}
	}
}

// TestClosureMachineReuseWithChunksAllocatesNothing: the chunk is the
// machine's, allocated on its first hooked Run and reused after.
func TestClosureMachineReuseWithChunksAllocatesNothing(t *testing.T) {
	code, err := Decode(countLoopProg(3 * BranchChunk))
	if err != nil {
		t.Fatal(err)
	}
	var events int
	m := &ClosureMachine{Code: code, OnBranches: func(ev []uint32) { events += len(ev) }}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a reused ClosureMachine allocates %.1f times per Run", allocs)
	}
	if want := 7 * (3*BranchChunk + 1); events != want {
		t.Errorf("%d events over 7 runs, want %d", events, want)
	}
}
