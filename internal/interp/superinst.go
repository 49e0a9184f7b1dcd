// Superinstruction support: the curated fusion pattern table applied by
// Decode, the baseOp table both decoded engines dispatch through, and
// the structured fusion report (Code.FusionStats).
package interp

// maxFuseLen is the longest curated pattern. The in-place fusion scheme
// supports any length: the fused opcode overwrites the run's first
// dinst and slots 1..n-1 keep their full original contents.
const maxFuseLen = 5

// fusedPattern is one curated superinstruction: decode marks the
// adjacent in-block opcode run seq with op.
type fusedPattern struct {
	op  dop
	seq []dop
}

// fusedPatterns is the curated set, and it is fixed, so Code.FusionStats
// stays comparable between builds: these were the highest-weight
// dynamic runs over the 17-workload roster plus 40 random CFGs when the
// set was chosen, with Call only ever a pattern's final op. Longer
// patterns shadow their prefixes in the greedy scan, so e.g.
// ld+add+st+cmpbr (the counter idiom `g[i]++` followed by a loop test)
// wins over ld+add where both apply.
var fusedPatterns = []fusedPattern{
	// Straight pairs.
	{opMovMov, []dop{opMov, opMov}},
	{opMovAdd, []dop{opMov, opAdd}},
	{opAddMov, []dop{opAdd, opMov}},
	{opAddAdd, []dop{opAdd, opAdd}},
	{opAddLd, []dop{opAdd, opLd}},
	{opLdAdd, []dop{opLd, opAdd}},
	{opAddSt, []dop{opAdd, opSt}},
	{opStAdd, []dop{opSt, opAdd}},
	{opPutCharAdd, []dop{opPutChar, opAdd}},
	{opSubMov, []dop{opSub, opMov}},
	{opEnterMov, []dop{opEnter, opMov}},
	// Compare-and-branch tails.
	{opAddCmpBr, []dop{opAdd, opCmpBr}},
	{opLdCmpBr, []dop{opLd, opCmpBr}},
	{opStCmpBr, []dop{opSt, opCmpBr}},
	{opMovCmpBr, []dop{opMov, opCmpBr}},
	{opGetCharCmpBr, []dop{opGetChar, opCmpBr}},
	{opXorCmpBr, []dop{opXor, opCmpBr}},
	{opShlCmpBr, []dop{opShl, opCmpBr}},
	// Jump tails.
	{opMovJump, []dop{opMov, opJump}},
	{opAddJump, []dop{opAdd, opJump}},
	// Call tail.
	{opLdCall, []dop{opLd, opCall}},
	{opStSub, []dop{opSt, opSub}},
	// Triples.
	{opLdAddSt, []dop{opLd, opAdd, opSt}},
	{opAddLdAdd, []dop{opAdd, opLd, opAdd}},
	{opAddLdCmpBr, []dop{opAdd, opLd, opCmpBr}},
	{opAddLdCall, []dop{opAdd, opLd, opCall}},
	{opAddMovJump, []dop{opAdd, opMov, opJump}},
	{opStAddMov, []dop{opSt, opAdd, opMov}},
	{opPutCharAddJump, []dop{opPutChar, opAdd, opJump}},
	{opStMovJump, []dop{opSt, opMov, opJump}},
	{opMovAddMov, []dop{opMov, opAdd, opMov}},
	{opEnterMovMov, []dop{opEnter, opMov, opMov}},
	// Quads and quints: whole-idiom runs — counter increment + loop
	// test, the sort inner comparison (two indexed loads feeding a
	// compare call, then its result consumed), and wc's instrumented
	// bit-accumulator and classifier blocks.
	{opLdAddStCmpBr, []dop{opLd, opAdd, opSt, opCmpBr}},
	{opAddLdAddLd, []dop{opAdd, opLd, opAdd, opLd}},
	{opMovAddMovCmpBr, []dop{opMov, opAdd, opMov, opCmpBr}},
	{opAddLdAddLdCall, []dop{opAdd, opLd, opAdd, opLd, opCall}},
	{opAddAddAddLdSt, []dop{opAdd, opAdd, opAdd, opLd, opSt}},
	{opPcOrShlPcJump, []dop{opProfCond, opOr, opShl, opProfCond, opJump}},
	{opLdAddStMovJump, []dop{opLd, opAdd, opSt, opMov, opJump}},
	{opCmpMulCmpAndBr, []dop{opCmp, opMul, opCmp, opAnd, opBr}},
	// The tails and whole-blocks the block dump shows are still
	// multi-dispatch after the patterns above: sort's swap-and-advance
	// and putchar loops, its index-increment guard, and wc's line-count
	// update on the less-travelled arm.
	{opSubMovJump, []dop{opSub, opMov, opJump}},
	{opLdAddStJump, []dop{opLd, opAdd, opSt, opJump}},
	{opStAddMovJump, []dop{opSt, opAdd, opMov, opJump}},
	{opAddLdAddLdCmpBr, []dop{opAdd, opLd, opAdd, opLd, opCmpBr}},
	{opAddLdPutCharAddJump, []dop{opAdd, opLd, opPutChar, opAdd, opJump}},
}

// fuseTable maps an adjacent base-opcode pair to its fused opcode, or 0
// (opEnter, never a fusion result) for no fusion. fuseLonger marks
// pairs that begin at least one length-3/4 pattern, gating the (rarer)
// map lookups in the greedy scan; fuseLookup resolves those patterns.
var (
	fuseTable  [nBaseDop][nBaseDop]dop
	fuseLonger [nBaseDop][nBaseDop]bool
	fuseLookup = map[gram]dop{}
)

// baseDopName labels the unfused opcodes for reports.
var baseDopName = [nBaseDop]string{
	opEnter:    "enter",
	opMov:      "mov",
	opAdd:      "add",
	opSub:      "sub",
	opMul:      "mul",
	opDiv:      "div",
	opRem:      "rem",
	opAnd:      "and",
	opOr:       "or",
	opXor:      "xor",
	opShl:      "shl",
	opShr:      "shr",
	opNeg:      "neg",
	opNot:      "not",
	opCmp:      "cmp",
	opLd:       "ld",
	opSt:       "st",
	opGetChar:  "getchar",
	opPutChar:  "putchar",
	opPutInt:   "putint",
	opCall:     "call",
	opProf:     "prof",
	opProfCond: "profcond",
	opBr:       "br",
	opCmpBr:    "cmpbr",
	opJump:     "jump",
	opIJmp:     "ijmp",
	opRet:      "ret",
}

// fusedDopName labels fused opcodes ("add+ld+cmpbr") and fusedDopLen
// records each one's pattern length, both derived from the pattern list.
var (
	fusedDopName = map[dop]string{}
	fusedDopLen  = map[dop]int{}
)

// baseOp maps each decoded opcode to the op an engine dispatches: a
// superinstruction to the first op of its run, whose other dinsts
// fusion leaves in place to dispatch as themselves, and any other
// opcode to itself (so an engine still sees, and traps on, one Decode
// never emits). Fused and unfused Code therefore execute identically.
// It covers every dop value, so indexing it needs no bounds check.
var baseOp [1 << 8]dop

func init() {
	for i := range baseOp {
		baseOp[i] = dop(i)
	}
	for _, p := range fusedPatterns {
		baseOp[p.op] = p.seq[0]
		g := patGram(p.seq)
		switch len(p.seq) {
		case 2:
			fuseTable[p.seq[0]][p.seq[1]] = p.op
		default:
			fuseLonger[p.seq[0]][p.seq[1]] = true
			fuseLookup[g] = p.op
		}
		fusedDopName[p.op] = g.String()
		fusedDopLen[p.op] = len(p.seq)
	}
}

func patGram(seq []dop) gram {
	g := gram{n: uint8(len(seq))}
	copy(g.ops[:], seq)
	return g
}

// FusionStats summarizes superinstruction fusion over a decoded body:
// how many dispatch slots it has, how many superinstruction sites were
// formed, how many original ops those sites absorb, and the
// per-pattern site counts.
type FusionStats struct {
	// Ops is the number of decoded dispatch slots. Fusion never changes
	// it: a fused run still occupies all its slots.
	Ops int `json:"ops"`

	// Fused is the number of superinstruction sites.
	Fused int `json:"fused"`

	// Inside is the number of original ops absorbed into
	// superinstructions (the sum of pattern lengths over sites).
	Inside int `json:"inside"`

	// Patterns maps pattern label ("add+ld+cmpbr") to static site count.
	Patterns map[string]int `json:"patterns,omitempty"`
}

// Merge accumulates o into s.
func (s *FusionStats) Merge(o *FusionStats) {
	s.Ops += o.Ops
	s.Fused += o.Fused
	s.Inside += o.Inside
	for k, v := range o.Patterns {
		if s.Patterns == nil {
			s.Patterns = make(map[string]int)
		}
		s.Patterns[k] += v
	}
}

// FusionStats reports whole-program fusion totals for the decoded code.
// With Fuse off only Ops is non-zero.
func (c *Code) FusionStats() FusionStats {
	var total FusionStats
	for i := range c.funcs {
		fs := funcFusion(&c.funcs[i])
		total.Merge(&fs)
	}
	return total
}

func funcFusion(df *dfunc) FusionStats {
	fs := FusionStats{Ops: len(df.code)}
	for i := 0; i < len(df.code); {
		op := df.code[i].op
		if op < nBaseDop {
			i++
			continue
		}
		n := fusedDopLen[op]
		fs.Fused++
		fs.Inside += n
		if fs.Patterns == nil {
			fs.Patterns = make(map[string]int)
		}
		fs.Patterns[fusedDopName[op]]++
		i += n
	}
	return fs
}

// gram is an adjacent decoded-op sequence of length n (2..maxFuseLen):
// the decoder's lookup key for patterns longer than a pair.
type gram struct {
	n   uint8
	ops [maxFuseLen]dop
}

func (g gram) String() string {
	s := baseDopName[g.ops[0]]
	for i := 1; i < int(g.n); i++ {
		s += "+" + baseDopName[g.ops[i]]
	}
	return s
}
