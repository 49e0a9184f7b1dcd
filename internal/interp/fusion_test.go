package interp

import (
	"reflect"
	"testing"

	"branchreorder/internal/ir"
)

// TestFusionEdgeCases pins the block boundary of the fusion report: a
// pattern straddling a block start is never counted (every branch and
// jump-table target is a block start, so no pattern site may span one),
// while each block's own runs are.
func TestFusionEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		prog func() *ir.Program
		want map[string]int
	}{
		{
			// b0 falls through to b1 via an elided adjacent goto, so in
			// the decoded stream b0's trailing Add sits directly before
			// b1's leading Mov — the add+mov shape. An unbounded scan
			// would count enter+mov, then add+mov across the boundary;
			// the report counts b0's enter+mov and b1's own mov+add.
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
			want: map[string]int{"enter+mov": 1, "mov+add": 1},
		},
		{
			// An indirect jump dispatches into b2. b1 falls through into
			// b2 with an add|mov straddle, and b2's own head is itself a
			// pattern, so the table target must start a site, never sit
			// inside one, whichever way control arrives (table entry 1
			// jumps in, entry 0 walks in through b1).
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
			want: map[string]int{"enter+mov": 1, "mov+add": 1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, err := Decode(tc.prog())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			fs := code.FusionStats()
			if !reflect.DeepEqual(fs.Patterns, tc.want) {
				t.Errorf("patterns = %v, want %v", fs.Patterns, tc.want)
			}
			if fs.Fused != 2 || fs.Inside != 4 {
				t.Errorf("fused %d sites covering %d ops, want 2 covering 4", fs.Fused, fs.Inside)
			}
		})
	}
}
