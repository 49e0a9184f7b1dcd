package interp

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"branchreorder/internal/ir"
)

// TestDecodeRejectsUnlinearized checks the decode-time guard for programs
// whose block order disagrees with their layout indices.
func TestDecodeRejectsUnlinearized(t *testing.T) {
	p := countLoopProg(1)
	p.Funcs[0].Blocks[1].LayoutIndex = 5
	if _, err := Decode(p); err == nil ||
		!strings.Contains(err.Error(), "not linearized") {
		t.Errorf("decode error: %v", err)
	}
}

// singleBranchProg branches once, on a constant compare, with the given
// branch ID in place of the one linearization assigned.
func singleBranchProg(id int) *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", NRegs: 1}
	entry := f.NewBlock()
	a := f.NewBlock()
	z := f.NewBlock()
	entry.Insts = []ir.Inst{{Op: ir.Cmp, A: ir.Imm(0), B: ir.Imm(0)}}
	entry.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: a, Next: z}
	a.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(1)}
	z.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
	p.Funcs = []*ir.Func{f}
	p.Linearize()
	entry.Term.BranchID = id
	return p
}

// TestDecodeRejectsBranchIDs: a branch event carries 31 bits of ID, so
// Decode refuses any conditional branch outside [0, 2^31) — rather than
// truncating it — and the reference Machine traps on one when
// OnBranches is set. The largest representable ID round-trips.
func TestDecodeRejectsBranchIDs(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits")
	}
	for _, id64 := range []int64{-1, 1 << 31, 1<<32 + 7} {
		id := int(id64)
		p := singleBranchProg(id)
		want := "branch ID " + strconv.Itoa(id)
		if _, err := Decode(p); err == nil ||
			!strings.Contains(err.Error(), "decode main") || !strings.Contains(err.Error(), want) {
			t.Errorf("id %d: decode error %v, want one naming main and %q", id, err, want)
		}
		// With OnBranches set, neither hook sees the event it traps on.
		var r streamRecorder
		m := &Machine{Prog: p, OnBranch: r.onBranch, OnBranches: r.onBranches}
		var rerr *RuntimeError
		if _, err := m.Run(); !errors.As(err, &rerr) || !strings.Contains(err.Error(), want) {
			t.Errorf("id %d: reference run error %v, want a RuntimeError naming %q", id, err, want)
		}
		checkChunks(t, "id "+strconv.Itoa(id), r.events, r.chunks)
		if len(r.events) != 0 {
			t.Errorf("id %d: OnBranch saw %d events before the trap, want none", id, len(r.events))
		}
		var seen int
		ref := &Machine{Prog: p, OnBranch: func(got int, _ bool) { seen = got }}
		if _, err := ref.Run(); err != nil || seen != id {
			t.Errorf("id %d: OnBranch saw %d (err %v), want the full ID", id, seen, err)
		}
	}

	p := singleBranchProg(MaxBranchID)
	want := []uint32{BranchEvent(MaxBranchID, true)}
	for _, e := range streamEngines {
		got, chunks, errText := e.run(t, p, nil, 0)
		checkChunks(t, e.name, got, chunks)
		if errText != "" || !slices.Equal(got, want) {
			t.Errorf("%s: events %x (err %q), want %x", e.name, got, errText, want)
		}
	}
}

// TestDecodeShape pins the structural properties the decoder promises:
// Cmp+Br fusion, adjacent-goto elision, block charges on terminators,
// and opEnter only for blocks whose terminator decodes away. Decoded
// unfused: superinstruction fusion is a separate pass with its own
// tests, and it would fold the opEnter+opMov prefix this test pins.
func TestDecodeShape(t *testing.T) {
	p := countLoopProg(3)
	code, err := DecodeWith(p, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mainFn *dfunc
	for i := range code.funcs {
		if code.funcs[i].name == "main" {
			mainFn = &code.funcs[i]
		}
	}
	counts := map[dop]int{}
	for i := range mainFn.code {
		counts[mainFn.code[i].op]++
	}
	// entry (Mov + elided goto) -> opEnter + opMov; head (Cmp + Br) ->
	// one fused opCmpBr; body (Call + back-edge goto) -> opCall + opJump;
	// exit -> opRet.
	want := map[dop]int{opEnter: 1, opMov: 1, opCmpBr: 1, opCall: 1, opJump: 1, opRet: 1}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("main decodes with %d of op %d, want %d (all: %v)", counts[op], op, n, counts)
		}
	}
	if counts[opCmp] != 0 || counts[opBr] != 0 {
		t.Errorf("Cmp+Br not fused: %v", counts)
	}
	// The back-edge opJump carries the body block's charge (the Call).
	for i := range mainFn.code {
		in := &mainFn.code[i]
		if in.op == opJump && (in.cost != 1 || in.stepCost != 0) {
			t.Errorf("back-edge jump carries cost=%d stepCost=%d, want 1/0 (the Call)",
				in.cost, in.stepCost)
		}
		if in.op == opCmpBr && (in.cost != 1 || in.stepCost != 1) {
			t.Errorf("fused branch carries cost=%d stepCost=%d, want 1/1 (the Cmp)",
				in.cost, in.stepCost)
		}
	}
}
