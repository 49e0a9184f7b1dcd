// Flat pre-decoding for the closure engine. Decode compiles a
// linearized ir.Program into contiguous per-function instruction arrays
// with every operand, branch target, call and jump-table entry resolved
// to array indices, so the closure compiler (compile.go) binds no
// pointer chases, no per-call name lookups and no per-instruction cost
// bookkeeping into the closures it builds.
//
// Decode rules:
//
//   - Blocks are decoded in layout order. A block's straight-line
//     instruction and step charges are precomputed and folded into its
//     terminator's cost/stepCost fields — every executed block reaches
//     its terminator, so Insts and the step budget are maintained
//     block-granularly with no per-instruction work. A block whose
//     terminator decodes to nothing (an adjacent goto) instead opens
//     with one opEnter op carrying the charge, when it is non-zero.
//   - Nop decodes to nothing. Prof/ProfCond decode to zero-cost ops.
//   - A Cmp that is the last effective instruction of a block ending in
//     a conditional branch fuses with it into one opCmpBr: it still
//     sets the frame's condition codes (later branches may reuse them)
//     but compiles to one closure instead of two.
//   - A goto whose target is the physically following block decodes to
//     nothing — pure fall-through, exactly the adjacency rule the
//     reference interpreter applies dynamically. Any other goto decodes
//     to opJump with its dynamic cost and delay-slot effect precomputed.
//   - Conditional branches carry both successor PCs plus the SlotNops
//     charge for each outcome, precomputed from the terminator's
//     SlotFill. A branch ID outside [0, MaxBranchID] is a decode error:
//     it would not fit the int32 field, nor a branch event.
//   - Calls resolve the callee to a function index at decode time; a
//     call to an unknown function decodes to a trap that reproduces the
//     reference interpreter's runtime error if (and only if) executed.
package interp

import (
	"fmt"
	"sync"

	"branchreorder/internal/ir"
)

// dop enumerates the decoded opcodes.
type dop uint8

const (
	opEnter dop = iota // charge the block's precomputed cost

	// Straight-line ops, cost already charged by opEnter.
	opMov
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opNeg
	opNot
	opCmp
	opLd
	opSt
	opGetChar
	opPutChar
	opPutInt
	opCall
	opProf
	opProfCond

	// Control transfers, charging their own dynamic cost.
	opBr    // conditional branch
	opCmpBr // fused compare + conditional branch
	opJump  // real unconditional jump (non-adjacent goto)
	opIJmp  // indirect jump through a table
	opRet

	nBaseDop // count of unfused opcodes; fused superinstructions follow

	// Superinstructions: each marks an adjacent in-block run of 2-5 ops.
	// The fused opcode overwrites the run's FIRST dinst, whose other
	// fields keep the first op's operands; the remaining dinsts keep
	// their full original contents. The closure compiler maps every
	// opcode through baseOp (superinst.go), so a fused run executes op by
	// op, exactly as its unfused form. The curated set lives in fusedPatterns.
	opMovMov              // Mov ; Mov
	opMovAdd              // Mov ; Add
	opAddMov              // Add ; Mov
	opAddAdd              // Add ; Add
	opAddLd               // Add ; Ld
	opLdAdd               // Ld ; Add
	opAddSt               // Add ; St
	opStAdd               // St ; Add
	opPutCharAdd          // PutChar ; Add
	opSubMov              // Sub ; Mov
	opEnterMov            // Enter ; Mov
	opAddCmpBr            // Add ; CmpBr
	opLdCmpBr             // Ld ; CmpBr
	opStCmpBr             // St ; CmpBr
	opMovCmpBr            // Mov ; CmpBr
	opGetCharCmpBr        // GetChar ; CmpBr
	opXorCmpBr            // Xor ; CmpBr
	opShlCmpBr            // Shl ; CmpBr
	opMovJump             // Mov ; Jump
	opAddJump             // Add ; Jump
	opLdCall              // Ld ; Call
	opLdAddSt             // Ld ; Add ; St
	opAddLdAdd            // Add ; Ld ; Add
	opAddLdCmpBr          // Add ; Ld ; CmpBr
	opAddLdCall           // Add ; Ld ; Call
	opAddMovJump          // Add ; Mov ; Jump
	opStAddMov            // St ; Add ; Mov
	opPutCharAddJump      // PutChar ; Add ; Jump
	opStMovJump           // St ; Mov ; Jump
	opMovAddMov           // Mov ; Add ; Mov
	opEnterMovMov         // Enter ; Mov ; Mov
	opLdAddStCmpBr        // Ld ; Add ; St ; CmpBr
	opAddLdAddLd          // Add ; Ld ; Add ; Ld
	opStSub               // St ; Sub
	opMovAddMovCmpBr      // Mov ; Add ; Mov ; CmpBr
	opAddLdAddLdCall      // Add ; Ld ; Add ; Ld ; Call
	opAddAddAddLdSt       // Add ; Add ; Add ; Ld ; St
	opPcOrShlPcJump       // ProfCond ; Or ; Shl ; ProfCond ; Jump
	opLdAddStMovJump      // Ld ; Add ; St ; Mov ; Jump
	opCmpMulCmpAndBr      // Cmp ; Mul ; Cmp ; And ; Br
	opSubMovJump          // Sub ; Mov ; Jump
	opLdAddStJump         // Ld ; Add ; St ; Jump
	opStAddMovJump        // St ; Add ; Mov ; Jump
	opAddLdAddLdCmpBr     // Add ; Ld ; Add ; Ld ; CmpBr
	opAddLdPutCharAddJump // Add ; Ld ; PutChar ; Add ; Jump
)

// darg is a resolved operand: a register index, or an immediate when
// reg is negative.
type darg struct {
	imm int64
	reg int32
}

// val reads the operand against a register window. Small enough to
// inline into every closure body.
func (a darg) val(win []int64) int64 {
	if a.reg < 0 {
		return a.imm
	}
	return win[a.reg]
}

func decodeArg(o ir.Operand) darg {
	if o.IsImm {
		return darg{imm: o.Imm, reg: -1}
	}
	return darg{reg: int32(o.Reg)}
}

// dinst is one decoded instruction. Rarely-populated payloads (call
// argument lists, jump tables) live in side tables on dfunc, keeping
// the hot array compact.
type dinst struct {
	op        dop
	slotTaken uint8 // SlotNops charged on the taken/only path
	slotFall  uint8 // SlotNops charged on the fall-through path
	relMask   uint8 // relTruth[Rel]: branch/ProfCond relation, pre-encoded
	dst       int32
	a, b      darg
	t1        int32 // branch taken PC; jump target PC; call/table index
	t2        int32 // branch fall-through PC
	branchID  int32
	cost      uint32 // opEnter: block Insts charge
	stepCost  uint32 // opEnter: block step-budget charge
	seqID     int32
	sub       int32
}

// relTruth encodes each ir.Rel as a bitmask over the three-way compare
// outcome (bit 4: a<b, bit 2: a==b, bit 1: a>b); Decode bakes it into
// dinst.relMask. maskHolds evaluates the relation against the mask with
// at most two compares instead of ir.Rel.Holds' six-way switch.
var relTruth = [...]uint8{
	ir.EQ: 0b010,
	ir.NE: 0b101,
	ir.LT: 0b100,
	ir.LE: 0b110,
	ir.GT: 0b001,
	ir.GE: 0b011,
}

func maskHolds(mask uint8, a, b int64) bool {
	s := 0
	if a < b {
		s = 2
	} else if a == b {
		s = 1
	}
	return mask>>s&1 != 0
}

// dcall is the side-table payload of one call site.
type dcall struct {
	fn   int32 // callee function index; -1 for an unknown callee
	dst  int32 // caller result register; -1 when discarded
	args []darg
	name string // callee name, for the unknown-callee trap
}

// dfunc is one decoded function. blockStart maps each block's layout
// index to its first PC (with one extra sentinel entry at len(code));
// the fusion pass uses it to keep every fused run inside one block.
type dfunc struct {
	name       string
	nParams    int
	nRegs      int
	code       []dinst
	calls      []dcall
	tables     [][]int32
	blockStart []int32
}

// Code is a whole program decoded for the closure engine. A Code is
// immutable after Decode; the compiled closure graph (compile.go) is
// cached here lazily under closOnce, so a Code is safe for concurrent
// ClosureMachines.
type Code struct {
	prog  *ir.Program
	funcs []dfunc
	main  int

	closOnce sync.Once
	clos     *compiledProg
}

// Prog returns the program the code was decoded from.
func (c *Code) Prog() *ir.Program { return c.prog }

// DecodeOptions configures DecodeWith.
type DecodeOptions struct {
	// Fuse marks curated adjacent-op runs within a block as
	// superinstructions, which Code.FusionStats counts. The closure
	// engine runs a fused run op by op, so execution is identical
	// either way (same Stats, output, traps and event streams); tests
	// decode with Fuse off as the reference the fused decode is held to.
	Fuse bool
}

// Decode compiles a linearized program for the decoded engines with
// superinstruction fusion on. It fails if any function's block slice
// disagrees with its layout indices (i.e. Program.Linearize has not run
// since the last CFG change); everything else the reference interpreter
// would only trap on at runtime decodes to an equivalent runtime trap.
func Decode(p *ir.Program) (*Code, error) {
	return DecodeWith(p, DecodeOptions{Fuse: true})
}

// DecodeWith compiles a linearized program with explicit options.
func DecodeWith(p *ir.Program, opts DecodeOptions) (*Code, error) {
	c := &Code{prog: p, main: -1}
	idx := make(map[string]int32, len(p.Funcs))
	for i, f := range p.Funcs {
		idx[f.Name] = int32(i)
		if f.Name == "main" {
			c.main = i
		}
	}
	c.funcs = make([]dfunc, len(p.Funcs))
	for i, f := range p.Funcs {
		if err := decodeFunc(&c.funcs[i], f, idx); err != nil {
			return nil, fmt.Errorf("interp: decode %s: %w", f.Name, err)
		}
		if opts.Fuse {
			fuseFunc(&c.funcs[i])
		}
	}
	return c, nil
}

// fuseFunc rewrites each block's decoded run with the curated
// superinstruction set: a greedy left-to-right, longest-match-first
// scan that, on a hit, overwrites the first dinst's opcode with the
// fused one and skips past the matched run (no overlap, one fusion
// level). All dinst slots stay in place, so block-start PCs, branch
// targets and the terminator's block-granular charges are untouched by
// construction.
func fuseFunc(df *dfunc) {
	for bi := 0; bi+1 < len(df.blockStart); bi++ {
		lo, hi := int(df.blockStart[bi]), int(df.blockStart[bi+1])
		for i := lo; i+1 < hi; {
			a, b := df.code[i].op, df.code[i+1].op
			if fuseLonger[a][b] {
				matched := false
				for n := maxFuseLen; n > 2; n-- {
					if i+n > hi {
						continue
					}
					g := gram{n: uint8(n)}
					for k := 0; k < n; k++ {
						g.ops[k] = df.code[i+k].op
					}
					if fop, ok := fuseLookup[g]; ok {
						df.code[i].op = fop
						i += n
						matched = true
						break
					}
				}
				if matched {
					continue
				}
			}
			if fop := fuseTable[a][b]; fop != 0 {
				df.code[i].op = fop
				i += 2
			} else {
				i++
			}
		}
	}
}

// stepCostOf is the per-instruction step-budget charge: ordinary
// instructions cost 1; calls charge the instruction count but not the
// step budget (the callee's own execution bounds the run), matching the
// reference interpreter; instrumentation and nops are free.
func instCharges(in *ir.Inst) (insts, steps uint32) {
	switch in.Op {
	case ir.Prof, ir.ProfCond, ir.Nop:
		return 0, 0
	case ir.Call:
		return 1, 0
	default:
		return 1, 1
	}
}

// fusesCmpBr reports whether block b ends with a Cmp that can fuse into
// its conditional branch: the Cmp must be the last effective (non-Nop)
// instruction, so nothing observable happens between it and the branch.
func fusesCmpBr(b *ir.Block) bool {
	if b.Term.Kind != ir.TermBr {
		return false
	}
	for i := len(b.Insts) - 1; i >= 0; i-- {
		switch b.Insts[i].Op {
		case ir.Nop:
			continue
		case ir.Cmp:
			return true
		default:
			return false
		}
	}
	return false
}

// elidesTerm reports whether block b's terminator decodes to nothing: a
// goto whose target is the physically following block.
func elidesTerm(b *ir.Block) bool {
	return b.Term.Kind == ir.TermGoto && b.Term.Taken.LayoutIndex == b.LayoutIndex+1
}

// decodedLen returns how many dinsts block b emits.
func decodedLen(b *ir.Block) int {
	n := 0
	var insts uint32
	for i := range b.Insts {
		in := &b.Insts[i]
		if in.Op == ir.Nop {
			continue
		}
		n++
		ic, _ := instCharges(in)
		insts += ic
	}
	if elidesTerm(b) {
		if insts > 0 {
			n++ // opEnter carries the block charge
		}
	} else {
		n++ // the terminator carries the block charge
	}
	if fusesCmpBr(b) {
		n-- // the Cmp merges into its branch
	}
	return n
}

// slotNop is the delay-slot charge of an unconditional transfer.
func slotNop(s ir.SlotFill) uint8 {
	if s != ir.SlotAlways {
		return 1
	}
	return 0
}

// brSlots precomputes a conditional branch's SlotNops charge per
// outcome, from the reference interpreter's accounting.
func brSlots(s ir.SlotFill) (taken, fall uint8) {
	switch s {
	case ir.SlotAlways:
		return 0, 0
	case ir.SlotFallthru:
		return 1, 0
	case ir.SlotTaken:
		return 0, 1
	default:
		return 1, 1
	}
}

func decodeFunc(df *dfunc, f *ir.Func, idx map[string]int32) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function has no blocks")
	}
	for i, b := range f.Blocks {
		if b.LayoutIndex != i {
			return fmt.Errorf("block %d has layout index %d: program is not linearized", i, b.LayoutIndex)
		}
	}
	df.name = f.Name
	df.nParams = f.NParams
	df.nRegs = f.NRegs

	start := make([]int32, len(f.Blocks)+1)
	total := 0
	for i, b := range f.Blocks {
		start[i] = int32(total)
		total += decodedLen(b)
	}
	start[len(f.Blocks)] = int32(total)
	df.blockStart = start

	df.code = make([]dinst, 0, total)
	for bi, b := range f.Blocks {
		var insts, steps uint32
		for i := range b.Insts {
			ic, sc := instCharges(&b.Insts[i])
			insts += ic
			steps += sc
		}
		if elidesTerm(b) && insts > 0 {
			df.code = append(df.code, dinst{op: opEnter, cost: insts, stepCost: steps})
		}
		fused := fusesCmpBr(b)
		last := -1
		if fused {
			for i := len(b.Insts) - 1; i >= 0; i-- {
				if b.Insts[i].Op == ir.Cmp {
					last = i
					break
				}
			}
		}
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == ir.Nop || i == last {
				continue
			}
			d, err := decodeInst(df, in, idx)
			if err != nil {
				return err
			}
			df.code = append(df.code, d)
		}
		t := &b.Term
		switch t.Kind {
		case ir.TermGoto:
			if t.Taken.LayoutIndex != b.LayoutIndex+1 {
				df.code = append(df.code, dinst{
					op:        opJump,
					t1:        start[t.Taken.LayoutIndex],
					slotTaken: slotNop(t.Slot),
					cost:      insts,
					stepCost:  steps,
				})
			}
		case ir.TermBr:
			if t.BranchID < 0 || t.BranchID > MaxBranchID {
				return fmt.Errorf("block %d: branch ID %d outside [0,%d], the range a branch event carries",
					bi, t.BranchID, MaxBranchID)
			}
			st, sf := brSlots(t.Slot)
			d := dinst{
				op:        opBr,
				relMask:   relTruth[t.Rel],
				t1:        start[t.Taken.LayoutIndex],
				t2:        start[t.Next.LayoutIndex],
				branchID:  int32(t.BranchID),
				slotTaken: st,
				slotFall:  sf,
				cost:      insts,
				stepCost:  steps,
			}
			if fused {
				cmp := &b.Insts[last]
				d.op = opCmpBr
				d.a = decodeArg(cmp.A)
				d.b = decodeArg(cmp.B)
			}
			df.code = append(df.code, d)
		case ir.TermIJmp:
			tbl := make([]int32, len(t.Targets))
			for i, tgt := range t.Targets {
				tbl[i] = start[tgt.LayoutIndex]
			}
			df.code = append(df.code, dinst{
				op:        opIJmp,
				a:         decodeArg(t.Index),
				t1:        int32(len(df.tables)),
				slotTaken: slotNop(t.Slot),
				cost:      insts,
				stepCost:  steps,
			})
			df.tables = append(df.tables, tbl)
		case ir.TermRet:
			df.code = append(df.code, dinst{
				op:        opRet,
				a:         decodeArg(t.Val),
				slotTaken: slotNop(t.Slot),
				cost:      insts,
				stepCost:  steps,
			})
		}
		if int(start[bi+1]) != len(df.code) {
			return fmt.Errorf("block %d decoded to %d instructions, expected %d",
				bi, len(df.code)-int(start[bi]), start[bi+1]-start[bi])
		}
	}
	return nil
}

func decodeInst(df *dfunc, in *ir.Inst, idx map[string]int32) (dinst, error) {
	d := dinst{dst: int32(in.Dst), a: decodeArg(in.A), b: decodeArg(in.B)}
	switch in.Op {
	case ir.Mov:
		d.op = opMov
	case ir.Add:
		d.op = opAdd
	case ir.Sub:
		d.op = opSub
	case ir.Mul:
		d.op = opMul
	case ir.Div:
		d.op = opDiv
	case ir.Rem:
		d.op = opRem
	case ir.And:
		d.op = opAnd
	case ir.Or:
		d.op = opOr
	case ir.Xor:
		d.op = opXor
	case ir.Shl:
		d.op = opShl
	case ir.Shr:
		d.op = opShr
	case ir.Neg:
		d.op = opNeg
	case ir.Not:
		d.op = opNot
	case ir.Cmp:
		d.op = opCmp
	case ir.Ld:
		d.op = opLd
	case ir.St:
		d.op = opSt
	case ir.GetChar:
		d.op = opGetChar
	case ir.PutChar:
		d.op = opPutChar
	case ir.PutInt:
		d.op = opPutInt
	case ir.Prof:
		d.op = opProf
		d.seqID, d.sub = int32(in.SeqID), int32(in.Sub)
	case ir.ProfCond:
		d.op = opProfCond
		d.relMask = relTruth[in.Rel]
		d.seqID, d.sub = int32(in.SeqID), int32(in.Sub)
	case ir.Call:
		d.op = opCall
		d.t1 = int32(len(df.calls))
		fn, ok := idx[in.Callee]
		if !ok {
			fn = -1 // traps at runtime, like the reference interpreter
		}
		args := make([]darg, len(in.Args))
		for i, a := range in.Args {
			args[i] = decodeArg(a)
		}
		dst := int32(in.Dst)
		if in.Dst == ir.NoReg {
			dst = -1
		}
		df.calls = append(df.calls, dcall{fn: fn, dst: dst, args: args, name: in.Callee})
	default:
		return d, fmt.Errorf("unknown opcode %v", in.Op)
	}
	return d, nil
}
