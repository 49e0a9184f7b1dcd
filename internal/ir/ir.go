// Package ir defines the intermediate representation used throughout the
// branch-reordering pipeline.
//
// The IR deliberately mimics the shape of SPARC-era machine code as seen by
// the vpo optimizer in the paper: virtual registers, a separate comparison
// instruction (CMP) that sets condition codes, conditional branches that
// consume those condition codes, explicit unconditional jumps, and indirect
// jumps through a jump table. Modelling the compare and the branch as two
// instructions is what makes the paper's redundant-comparison elimination
// (Figure 9) a real optimization, and modelling fall-through explicitly is
// what makes dynamic jump counts honest.
package ir

import "math"

// Reg names a virtual register within a function. Registers hold 64-bit
// signed integers. Register numbering is dense: 0..Func.NRegs-1, with the
// first Func.NParams registers holding the incoming arguments.
type Reg int

// NoReg marks the absence of a destination register (e.g. a call whose
// result is discarded).
const NoReg Reg = -1

// MinVal and MaxVal bound the value domain of the machine. They play the
// role of MIN and MAX in the paper's range conditions (Table 1).
const (
	MinVal = math.MinInt64
	MaxVal = math.MaxInt64
)

// Op enumerates the non-terminator instruction opcodes.
type Op int

const (
	// Mov dst, a — copy an operand into a register.
	Mov Op = iota
	// Arithmetic and bitwise: dst = a OP b.
	Add
	Sub
	Mul
	Div // traps (interpreter error) on division by zero
	Rem // traps on division by zero
	And
	Or
	Xor
	Shl
	Shr // arithmetic shift right
	// Unary: dst = OP a.
	Neg
	Not // bitwise complement
	// Cmp a, b — set the condition codes from comparing a with b.
	// The condition codes persist until the next Cmp in the same frame,
	// across block boundaries, exactly like hardware flags.
	Cmp
	// Ld dst, [a] — load from data memory at address a.
	Ld
	// St [a], b — store operand b to data memory at address a.
	St
	// GetChar dst — read the next byte of program input; -1 at EOF.
	GetChar
	// PutChar a — append the low byte of a to program output.
	PutChar
	// PutInt a — append the decimal representation of a to program output.
	PutInt
	// Call dst, callee(args...) — invoke another function.
	Call
	// Prof — profiling pseudo-instruction inserted at the head of a
	// detected branch sequence. Reads operand a (the branch variable) and
	// reports (SeqID, Sub=0, value) to the interpreter's profile hook.
	// It costs zero instructions: the paper measures final,
	// uninstrumented code, and the instrumented executable is a separate
	// compilation pass.
	Prof
	// ProfCond — profiling pseudo-instruction for common-successor
	// branch sequences (Section 10): evaluates "a Rel b" and reports
	// (SeqID, Sub, 0/1) to the profile hook, so a training run can
	// record the joint outcome distribution of the sequence's branches.
	// Costs zero instructions, like Prof.
	ProfCond
	// Nop — placeholder produced by in-place instruction deletion in some
	// peephole passes; removed by later cleanup, costs zero if executed.
	Nop
)

var opNames = [...]string{
	Mov: "mov", Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Neg: "neg", Not: "not", Cmp: "cmp", Ld: "ld", St: "st",
	GetChar: "getchar", PutChar: "putchar", PutInt: "putint",
	Call: "call", Prof: "prof", ProfCond: "profcond", Nop: "nop",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// Operand is either a register or an immediate constant.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   int64
}

// R builds a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm builds an immediate operand.
func Imm(v int64) Operand { return Operand{IsImm: true, Imm: v} }

// Inst is a single non-terminator instruction. A flat struct (rather than
// an interface per opcode) keeps cloning, rewriting and interpretation
// simple and fast; unused fields are zero.
type Inst struct {
	Op   Op
	Dst  Reg
	A, B Operand

	// Call-only fields.
	Callee string
	Args   []Operand

	// Prof/ProfCond fields: the sequence this instrumentation point
	// belongs to, the condition's index within it, and (ProfCond only)
	// the relation evaluated over A and B.
	SeqID int
	Sub   int
	Rel   Rel
}

// Def returns the register the instruction writes, or NoReg.
func (in *Inst) Def() Reg {
	switch in.Op {
	case Mov, Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Neg, Not, Ld, GetChar, Call:
		return in.Dst // NoReg for a call whose result is discarded
	}
	return NoReg
}

// Rel is a comparison relation evaluated by a conditional branch against
// the current condition codes.
type Rel int

const (
	EQ Rel = iota
	NE
	LT
	LE
	GT
	GE
)

var relNames = [...]string{EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge"}

func (r Rel) String() string {
	if int(r) < len(relNames) {
		return relNames[r]
	}
	return "rel?"
}

// Negate returns the complementary relation (the branch sense inversion
// used when the linearizer flips a conditional branch).
func (r Rel) Negate() Rel {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	default:
		return LT
	}
}

// Holds reports whether relation r holds for the compared pair (a, b).
func (r Rel) Holds(a, b int64) bool {
	switch r {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

// TermKind discriminates block terminators.
type TermKind int

const (
	// TermGoto transfers unconditionally to Taken. After linearization a
	// goto to the next block in layout order is free (pure fall-through);
	// any other goto costs one dynamic instruction.
	TermGoto TermKind = iota
	// TermBr branches to Taken when Rel holds for the current condition
	// codes and otherwise falls through to Next. The linearizer
	// guarantees Next is the following block in layout order.
	TermBr
	// TermIJmp is an indirect jump through a jump table: control moves to
	// Targets[Index]. Lowering emits explicit bounds checks beforehand,
	// so Index is always in range in verified programs.
	TermIJmp
	// TermRet returns Val (or 0 if absent) to the caller.
	TermRet
)

// Term is a block terminator.
type Term struct {
	Kind TermKind

	// TermBr fields.
	Rel  Rel
	Next *Block // fall-through successor

	// TermGoto and TermBr target.
	Taken *Block

	// TermIJmp fields.
	Index   Operand
	Targets []*Block

	// TermRet field.
	Val Operand

	// BranchID is a program-unique identity for a conditional branch,
	// assigned by Program.Linearize. Branch predictors index on it (it
	// stands in for the branch instruction's address).
	BranchID int

	// Slot records what the transfer's delay slot holds, decided by
	// Program.FillDelaySlots after the final linearization. Only the
	// machine cycle model consumes it.
	Slot SlotFill
}

// Succs appends the terminator's successor blocks to dst and returns it.
// Duplicates are preserved (an IJmp table may mention a block repeatedly).
func (t *Term) Succs(dst []*Block) []*Block {
	switch t.Kind {
	case TermGoto:
		dst = append(dst, t.Taken)
	case TermBr:
		dst = append(dst, t.Taken, t.Next)
	case TermIJmp:
		dst = append(dst, t.Targets...)
	}
	return dst
}

// Block is a basic block: a run of straight-line instructions ended by a
// single terminator.
type Block struct {
	// ID is unique within the function, non-negative and stable across
	// passes; new blocks get fresh IDs from Func.NewBlock, and a deleted
	// block's ID is never reused. The CFG analyses index slices by it.
	ID    int
	Insts []Inst
	Term  Term

	// LayoutIndex is the block's position in Func.Blocks after
	// Func.Linearize; -1 beforehand.
	LayoutIndex int
}

// Func is a single function.
type Func struct {
	Name    string
	NParams int
	NRegs   int
	Blocks  []*Block // Blocks[0] is the entry block

	nextID int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock allocates a block with a fresh ID and appends it to the
// function. The caller fills in instructions and terminator.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextID, LayoutIndex: -1}
	f.nextID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NRegs)
	f.NRegs++
	return r
}

// SyncNextID must be called after constructing a Func by hand (tests) so
// NewBlock never reuses an ID.
func (f *Func) SyncNextID() { f.nextID = IDBound(f) }

// Global is a datum in the flat data memory: a scalar (Size 1) or array.
type Global struct {
	Name string
	Addr int64 // starting word address in data memory
	Size int64 // number of words
	// Init is the initialized prefix of the global's words, at most Size
	// of them; every word past it is zero. An uninitialized buffer thus
	// holds no storage until an engine loads it into cleared memory.
	// Digest reads the zero-extended image, so an Init that ends in
	// zeros and the same Init trimmed of them digest alike.
	Init []int64
}

// Program is a whole translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*Global
	MemSize int64 // words of data memory (covers all globals)

	nextBranchID int
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
