package interp

import (
	"slices"
	"testing"

	"branchreorder/internal/ir"
)

// opAt returns the decoded opcode at code index i of main, which
// structural assertions below use to pin exactly which sites fused.
func opAt(t *testing.T, c *Code, i int) dop {
	t.Helper()
	main := &c.funcs[c.main]
	if i < 0 || i >= len(main.code) {
		t.Fatalf("opAt(%d): main has %d decoded ops", i, len(main.code))
	}
	return main.code[i].op
}

func blockStart(t *testing.T, c *Code, layout int) int {
	t.Helper()
	main := &c.funcs[c.main]
	if layout >= len(main.blockStart) {
		t.Fatalf("blockStart(%d): main has %d entries", layout, len(main.blockStart))
	}
	return int(main.blockStart[layout])
}

// TestFusionEdgeCases pins the boundary behavior of the fusion pass:
// a fusable pair straddling a block boundary must stay unfused (every
// branch and jump-table target is a block start, so nothing may land on
// the hidden interior of a superinstruction), while a trap raised by an
// interior op of a fused run must be indistinguishable — error text,
// output, partial stats, event streams — from the unfused execution.
func TestFusionEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		prog   func() *ir.Program
		inputs [][]byte
		check  func(t *testing.T, fused *Code)
	}{
		{
			// b0 falls through to b1 via an elided adjacent goto, so in
			// the decoded stream b0's trailing Add sits directly before
			// b1's leading Mov — the opAddMov shape. The pair must stay
			// split: b1's start is a jump target in spirit (any branch to
			// b1 lands there), and the fused body would charge b1's Mov
			// under b0.
			name: "pair-across-block-boundary",
			prog: func() *ir.Program {
				p := &ir.Program{}
				f := &ir.Func{Name: "main", NRegs: 3}
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b0.Insts = []ir.Inst{
					{Op: ir.Mov, Dst: 0, A: ir.Imm(1)},
					{Op: ir.Add, Dst: 1, A: ir.R(0), B: ir.Imm(2)},
				}
				b0.Term = ir.Term{Kind: ir.TermGoto, Taken: b1}
				b1.Insts = []ir.Inst{
					{Op: ir.Mov, Dst: 2, A: ir.R(1)},
					{Op: ir.Add, Dst: 0, A: ir.R(2), B: ir.R(1)},
				}
				b1.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(0)}
				p.Funcs = []*ir.Func{f}
				p.Linearize()
				return p
			},
			inputs: [][]byte{nil},
			check: func(t *testing.T, fused *Code) {
				// The last op of b0 must still be a bare Add even though
				// b1 opens with a Mov; fusion inside each block is free to
				// proceed (b1's own mov+add pair does fuse).
				b1 := blockStart(t, fused, 1)
				if op := opAt(t, fused, b1-1); op != opAdd {
					t.Errorf("b0 tail fused across the block boundary: op %d, want opAdd", op)
				}
				if op := opAt(t, fused, b1); op != opMovAdd {
					t.Errorf("b1 head = op %d, want the in-block opMovAdd fusion", op)
				}
			},
		},
		{
			// An indirect jump dispatches into b2. b1 falls through into
			// b2 with a fusable Add|Mov straddle, and b2's own head is
			// itself a fused pair — so the table target must land exactly
			// on a superinstruction start, never mid-run, whichever way
			// control arrives (table entry 1 jumps in, entry 0 walks in
			// through b1).
			name: "jump-table-target-stays-a-fusion-start",
			prog: func() *ir.Program {
				p := &ir.Program{}
				f := &ir.Func{Name: "main", NRegs: 3}
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b2 := f.NewBlock()
				b0.Insts = []ir.Inst{{Op: ir.GetChar, Dst: 0}}
				b0.Term = ir.Term{Kind: ir.TermIJmp, Index: ir.R(0), Targets: []*ir.Block{b1, b2}}
				b1.Insts = []ir.Inst{
					{Op: ir.Mov, Dst: 1, A: ir.Imm(5)},
					{Op: ir.Add, Dst: 2, A: ir.R(1), B: ir.Imm(1)},
				}
				b1.Term = ir.Term{Kind: ir.TermGoto, Taken: b2}
				b2.Insts = []ir.Inst{
					{Op: ir.Mov, Dst: 0, A: ir.Imm(7)},
					{Op: ir.Add, Dst: 1, A: ir.R(0), B: ir.R(2)},
				}
				b2.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}
				p.Funcs = []*ir.Func{f}
				p.Linearize()
				return p
			},
			// Entry 0 executes b1 then b2 (r2 defined); entry 1 jumps
			// straight to b2 (r2 still zero).
			inputs: [][]byte{{0}, {1}},
			check: func(t *testing.T, fused *Code) {
				b2 := blockStart(t, fused, 2)
				if op := opAt(t, fused, b2-1); op != opAdd {
					t.Errorf("b1 tail fused into the jump-table target: op %d, want opAdd", op)
				}
				if op := opAt(t, fused, b2); op != opMovAdd {
					t.Errorf("table target head = op %d, want opMovAdd starting at the target", op)
				}
			},
		},
		{
			// The St in the middle of a fused ld+add+st triple traps with
			// an out-of-range address. The superinstruction must surface
			// the identical error text after the identical prefix of
			// observable effects (the putchar'd byte, the load count).
			name: "store-trap-inside-fused-triple",
			prog: func() *ir.Program {
				p := &ir.Program{MemSize: 4}
				f := &ir.Func{Name: "main", NRegs: 2}
				b0 := f.NewBlock()
				b0.Insts = []ir.Inst{
					{Op: ir.PutChar, A: ir.Imm('a')},
					{Op: ir.St, A: ir.Imm(2), B: ir.Imm(9)},
					{Op: ir.Ld, Dst: 0, A: ir.Imm(2)},
					{Op: ir.Add, Dst: 1, A: ir.R(0), B: ir.Imm(1)},
					{Op: ir.St, A: ir.Imm(100), B: ir.R(1)},
				}
				b0.Term = ir.Term{Kind: ir.TermRet, Val: ir.Imm(0)}
				p.Funcs = []*ir.Func{f}
				p.Linearize()
				return p
			},
			inputs: [][]byte{nil},
			check: func(t *testing.T, fused *Code) {
				// The trap site must really sit inside a superinstruction,
				// or the case tests nothing.
				fs := fused.FusionStats()
				if fs.Patterns["ld+add+st"] != 1 {
					t.Errorf("patterns = %v, want one ld+add+st site", fs.Patterns)
				}
			},
		},
		{
			// The Ld completing a fused add+ld pair traps: the address
			// was computed by the fused run's own first op.
			name: "load-trap-inside-fused-pair",
			prog: func() *ir.Program {
				p := &ir.Program{MemSize: 4}
				f := &ir.Func{Name: "main", NRegs: 2}
				b0 := f.NewBlock()
				b0.Insts = []ir.Inst{
					{Op: ir.Add, Dst: 0, A: ir.Imm(60), B: ir.Imm(60)},
					{Op: ir.Ld, Dst: 1, A: ir.R(0)},
				}
				b0.Term = ir.Term{Kind: ir.TermRet, Val: ir.R(1)}
				p.Funcs = []*ir.Func{f}
				p.Linearize()
				return p
			},
			inputs: [][]byte{nil},
			check: func(t *testing.T, fused *Code) {
				fs := fused.FusionStats()
				if fs.Patterns["add+ld"] != 1 {
					t.Errorf("patterns = %v, want one add+ld site", fs.Patterns)
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog()
			fused, err := Decode(p)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			tc.check(t, fused)
			for _, input := range tc.inputs {
				ref := runReference(p, input, 0)
				fused := runClosureWith(t, p, input, 0, DecodeOptions{Fuse: true})
				plain := runClosureWith(t, p, input, 0, DecodeOptions{})
				// Fused and unfused runs share the engine's
				// block-granular accounting, so every field must match —
				// trapped or not.
				compareEngineResults(t, "fused-vs-unfused", plain, fused, true)
				// Against the reference, trapped runs compare error text
				// and effects; stats only when the run completed.
				compareEngineResults(t, "fused-vs-reference", ref, fused, ref.err == "")
			}
		})
	}
}

func compareEngineResults(t *testing.T, label string, want, got engineResult, wantStats bool) {
	t.Helper()
	if want.err != got.err {
		t.Errorf("%s: error %q, want %q", label, got.err, want.err)
	}
	if want.out != got.out {
		t.Errorf("%s: output %q, want %q", label, got.out, want.out)
	}
	if want.err == "" && want.ret != got.ret {
		t.Errorf("%s: ret %d, want %d", label, got.ret, want.ret)
	}
	if wantStats && want.stats != got.stats {
		t.Errorf("%s: stats\ngot:  %+v\nwant: %+v", label, got.stats, want.stats)
	}
	if !slices.Equal(want.branches, got.branches) {
		t.Errorf("%s: branch event streams differ", label)
	}
	if !slices.Equal(want.profs, got.profs) {
		t.Errorf("%s: prof event streams differ", label)
	}
}
