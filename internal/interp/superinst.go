// Superinstruction report: the curated fusion patterns and
// Code.FusionStats, which finds where they occur in the decoded code.
// Nothing executes a superinstruction. The closure engine compiles every
// decoded op on its own, so the report describes the code and changes no
// count the evaluation reports.
package interp

// maxFuseLen is the longest curated pattern.
const maxFuseLen = 5

// fusedPatterns is the curated set, and it is fixed, so Code.FusionStats
// stays comparable between builds: these were the highest-weight
// dynamic runs over the 17-workload roster plus 40 random CFGs when the
// set was chosen, with Call only ever a pattern's final op. Longer
// patterns shadow their prefixes in the greedy scan, so e.g.
// ld+add+st+cmpbr (the counter idiom `g[i]++` followed by a loop test)
// wins over ld+add where both apply.
var fusedPatterns = [][]dop{
	// Straight pairs.
	{opMov, opMov},
	{opMov, opAdd},
	{opAdd, opMov},
	{opAdd, opAdd},
	{opAdd, opLd},
	{opLd, opAdd},
	{opAdd, opSt},
	{opSt, opAdd},
	{opPutChar, opAdd},
	{opSub, opMov},
	{opEnter, opMov},
	// Compare-and-branch tails.
	{opAdd, opCmpBr},
	{opLd, opCmpBr},
	{opSt, opCmpBr},
	{opMov, opCmpBr},
	{opGetChar, opCmpBr},
	{opXor, opCmpBr},
	{opShl, opCmpBr},
	// Jump tails.
	{opMov, opJump},
	{opAdd, opJump},
	// Call tail.
	{opLd, opCall},
	{opSt, opSub},
	// Triples.
	{opLd, opAdd, opSt},
	{opAdd, opLd, opAdd},
	{opAdd, opLd, opCmpBr},
	{opAdd, opLd, opCall},
	{opAdd, opMov, opJump},
	{opSt, opAdd, opMov},
	{opPutChar, opAdd, opJump},
	{opSt, opMov, opJump},
	{opMov, opAdd, opMov},
	{opEnter, opMov, opMov},
	// Quads and quints: whole-idiom runs — counter increment + loop
	// test, the sort inner comparison (two indexed loads feeding a
	// compare call, then its result consumed), and wc's instrumented
	// bit-accumulator and classifier blocks.
	{opLd, opAdd, opSt, opCmpBr},
	{opAdd, opLd, opAdd, opLd},
	{opMov, opAdd, opMov, opCmpBr},
	{opAdd, opLd, opAdd, opLd, opCall},
	{opAdd, opAdd, opAdd, opLd, opSt},
	{opProfCond, opOr, opShl, opProfCond, opJump},
	{opLd, opAdd, opSt, opMov, opJump},
	{opCmp, opMul, opCmp, opAnd, opBr},
	// The tails and whole-blocks the block dump shows are still
	// multi-dispatch after the patterns above: sort's swap-and-advance
	// and putchar loops, its index-increment guard, and wc's line-count
	// update on the less-travelled arm.
	{opSub, opMov, opJump},
	{opLd, opAdd, opSt, opJump},
	{opSt, opAdd, opMov, opJump},
	{opAdd, opLd, opAdd, opLd, opCmpBr},
	{opAdd, opLd, opPutChar, opAdd, opJump},
}

// fuseStarts marks the adjacent opcode pairs some pattern begins with,
// gating the map lookups of the scan; fuseLookup maps each pattern's run
// to its label ("add+ld+cmpbr").
var (
	fuseStarts [nDop][nDop]bool
	fuseLookup = map[gram]string{}
)

// dopName labels the decoded opcodes for reports.
var dopName = [nDop]string{
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

func init() {
	for _, seq := range fusedPatterns {
		fuseStarts[seq[0]][seq[1]] = true
		g := gram{n: uint8(len(seq))}
		copy(g.ops[:], seq)
		name := dopName[seq[0]]
		for _, op := range seq[1:] {
			name += "+" + dopName[op]
		}
		fuseLookup[g] = name
	}
}

// FusionStats summarizes where the curated superinstruction patterns
// occur in a decoded body: how many dispatch slots it has, how many
// pattern sites the scan finds, how many ops those sites cover, and the
// per-pattern site counts.
type FusionStats struct {
	// Ops is the number of decoded dispatch slots.
	Ops int `json:"ops"`

	// Fused is the number of superinstruction sites.
	Fused int `json:"fused"`

	// Inside is the number of ops the sites cover (the sum of pattern
	// lengths over sites).
	Inside int `json:"inside"`

	// Patterns maps pattern label ("add+ld+cmpbr") to static site count.
	Patterns map[string]int `json:"patterns,omitempty"`
}

// FusionStats reports the whole program's superinstruction sites: a
// greedy left-to-right, longest-match-first scan of each block's
// decoded ops, which skips past every run it matches (no overlap) and
// never matches across a block start, where a branch or jump-table
// target may land.
func (c *Code) FusionStats() FusionStats {
	var fs FusionStats
	for fi := range c.funcs {
		df := &c.funcs[fi]
		fs.Ops += len(df.code)
		for bi := 0; bi+1 < len(df.blockStart); bi++ {
			lo, hi := int(df.blockStart[bi]), int(df.blockStart[bi+1])
			for i := lo; i+1 < hi; {
				name, n := matchPattern(df.code[i:hi])
				if n == 0 {
					i++
					continue
				}
				if fs.Patterns == nil {
					fs.Patterns = make(map[string]int)
				}
				fs.Fused++
				fs.Inside += n
				fs.Patterns[name]++
				i += n
			}
		}
	}
	return fs
}

// matchPattern returns the label and length of the longest curated
// pattern that code, at least two ops, begins with, or a zero length.
func matchPattern(code []dinst) (string, int) {
	if !fuseStarts[code[0].op][code[1].op] {
		return "", 0
	}
	var g gram
	n := min(len(code), maxFuseLen)
	for k := 0; k < n; k++ {
		g.ops[k] = code[k].op
	}
	for ; n >= 2; n-- {
		g.n = uint8(n)
		if name, ok := fuseLookup[g]; ok {
			return name, n
		}
		g.ops[n-1] = 0
	}
	return "", 0
}

// gram is an adjacent decoded-op run of length n (2..maxFuseLen), the
// key fuseLookup resolves patterns by; its ops past n are zero.
type gram struct {
	n   uint8
	ops [maxFuseLen]dop
}
