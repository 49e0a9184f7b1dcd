// Superinstruction support: the curated fusion pattern table applied by
// Decode and the structured fusion report (Code.FusionStats).
package interp

// maxFuseLen is the longest curated pattern. The in-place fusion scheme
// supports any length: the fused opcode overwrites the run's first
// dinst, slots 1..n-1 keep their full original contents as the
// operand/charge source, and the dispatch case advances past all n (or
// performs the final op's transfer).
const maxFuseLen = 5

// fusedPattern is one curated superinstruction: the adjacent in-block
// opcode run seq collapses into the single dispatch op.
type fusedPattern struct {
	op  dop
	seq []dop
}

// fusedPatterns is the curated set, and it is fixed: these were the
// highest-weight dynamic runs over the 17-workload roster plus 40
// random CFGs when the set was chosen, with one structural
// restriction: Call may only be a pattern's final op, because
// execution resumes at the op after the call site and a return landing
// mid-pattern would skip the fused prefix. ProfCond may fuse — the
// fused body replicates the hook call at its original position in the
// effect order. Longer patterns shadow their prefixes in the greedy
// scan, so e.g. ld+add+st+cmpbr (the counter idiom `g[i]++` followed by
// a loop test) wins over ld+add where both apply.
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
	// Call tail: the call is the final slot, so the saved return PC is
	// simply the end of the whole fused run.
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

// fusedDopName labels fused opcodes ("add+ld+cmpbr"), fusedDopLen
// records each one's pattern length, and fusedDopSeq its base-op
// sequence (the closure compiler reads a run's overwritten first op
// from it), all derived from the pattern list.
var (
	fusedDopName = map[dop]string{}
	fusedDopLen  = map[dop]int{}
	fusedDopSeq  = map[dop][]dop{}
)

func init() {
	for _, p := range fusedPatterns {
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
		fusedDopSeq[p.op] = p.seq
	}
}

func patGram(seq []dop) gram {
	g := gram{n: uint8(len(seq))}
	copy(g.ops[:], seq)
	return g
}

// FusionStats summarizes superinstruction fusion over a decoded body:
// how many dispatch slots it has pre-fusion, how many superinstruction
// sites were formed, how many original ops those sites absorb, and the
// per-pattern site counts.
type FusionStats struct {
	// Ops is the number of decoded dispatch slots before fusion. Fusion
	// never changes it: a fused run still occupies all its slots, it
	// just dispatches once.
	Ops int `json:"ops"`

	// Fused is the number of superinstruction sites. Each saves its
	// pattern length minus one dispatches per execution.
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
// All zeroes when the code was decoded with Fuse off.
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
