package lower

import (
	"math"
	"sort"

	"branchreorder/internal/cminus"
	"branchreorder/internal/ir"
)

// ChooseSwitchKind applies the paper's Table 2 heuristics. n is the number
// of cases; m is the number of possible values between the first and last
// case (span of the case range).
func ChooseSwitchKind(h HeuristicSet, n int, m int64) SwitchKind {
	switch h {
	case SetI:
		if n >= 4 && m <= int64(3*n) {
			return SwitchIndirect
		}
		if n >= 8 {
			return SwitchBinary
		}
		return SwitchLinear
	case SetII:
		if n >= 16 && m <= int64(3*n) {
			return SwitchIndirect
		}
		if n >= 8 {
			return SwitchBinary
		}
		return SwitchLinear
	default: // SetIII
		return SwitchLinear
	}
}

// switchKind returns the translation s gets under h (zero means Set I):
// Table 2 applied to its case count n and span m. Lowering reads the
// heuristic set here and nowhere else, and Plan calls it too, so a plan
// and the program lowered under it cannot disagree.
func switchKind(h HeuristicSet, s *cminus.SwitchStmt) SwitchKind {
	if h == 0 {
		h = SetI
	}
	n := 0
	var lo, hi int64
	for _, cs := range s.Cases {
		if cs.IsDefault {
			continue
		}
		if n == 0 || cs.Value < lo {
			lo = cs.Value
		}
		if n == 0 || cs.Value > hi {
			hi = cs.Value
		}
		n++
	}
	if n == 0 {
		return SwitchLinear
	}
	// hi-lo+1 wraps negative once the cases span more than 2^63 values,
	// and would pass the density test; the unsigned difference cannot
	// wrap, and saturating it leaves such a switch sparse.
	m := int64(math.MaxInt64)
	if d := uint64(hi) - uint64(lo); d < math.MaxInt64 {
		m = int64(d) + 1
	}
	return ChooseSwitchKind(h, n, m)
}

// SwitchPlan is the translation each switch statement of a checked
// program gets under one heuristic set, one letter per switch in source
// order: the first letter of the SwitchKind's name. The heuristic sets
// differ only in these choices, so sets whose plans are equal lower a
// program to the same IR. A plan is comparable and can key a memo.
type SwitchPlan string

// Plan returns the switch plan of a checked program under h. It only
// reads info, so it may run beside lowerings of the same program.
func Plan(info *cminus.Info, h HeuristicSet) SwitchPlan {
	plan := make([]byte, len(info.Switches))
	for i, s := range info.Switches {
		plan[i] = switchKind(h, s).String()[0]
	}
	return SwitchPlan(plan)
}

// switchStmt lowers a switch statement with C fall-through semantics.
func (l *lowerer) switchStmt(s *cminus.SwitchStmt) {
	tag := l.expr(s.Tag)
	tagReg := l.regOperand(tag)

	end := l.newBlock()

	// One entry block per arm, in source order, for fall-through.
	armBlocks := make([]*ir.Block, len(s.Cases))
	for i := range s.Cases {
		armBlocks[i] = l.newBlock()
	}
	defaultB := end
	var cases []caseVal
	for i, cs := range s.Cases {
		if cs.IsDefault {
			defaultB = armBlocks[i]
		} else {
			cases = append(cases, caseVal{cs.Value, armBlocks[i]})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].val < cases[j].val })

	kind := switchKind(l.opts.Switch, s)
	l.res.SwitchKinds[kind]++

	switch {
	case len(cases) == 0:
		l.jumpTo(defaultB)
	case kind == SwitchIndirect:
		l.lowerIndirect(tagReg, cases2vals(cases), cases2blks(cases), defaultB)
	case kind == SwitchBinary:
		l.lowerBinarySearch(tagReg, cases2vals(cases), cases2blks(cases), defaultB)
	default:
		l.lowerLinear(tagReg, s, armBlocks, defaultB)
	}

	// Lower arm bodies in source order with fall-through.
	l.breaks = append(l.breaks, end)
	for i, cs := range s.Cases {
		l.startBlock(armBlocks[i])
		for _, sub := range cs.Body {
			l.stmt(sub)
		}
		if i+1 < len(armBlocks) {
			l.jumpTo(armBlocks[i+1])
		} else {
			l.jumpTo(end)
		}
	}
	l.breaks = l.breaks[:len(l.breaks)-1]
	l.startBlock(end)
}

type caseVal struct {
	val int64
	blk *ir.Block
}

func cases2vals(cs []caseVal) []int64 {
	out := make([]int64, len(cs))
	for i, c := range cs {
		out[i] = c.val
	}
	return out
}

func cases2blks(cs []caseVal) []*ir.Block {
	out := make([]*ir.Block, len(cs))
	for i, c := range cs {
		out[i] = c.blk
	}
	return out
}

// lowerLinear emits a linear search in source case order: exactly the
// if-else chain a programmer would write, and exactly the shape the
// branch-reordering transformation detects as a reorderable sequence.
func (l *lowerer) lowerLinear(tag ir.Reg, s *cminus.SwitchStmt, armBlocks []*ir.Block, defaultB *ir.Block) {
	for i, cs := range s.Cases {
		if cs.IsDefault {
			continue
		}
		next := l.newBlock()
		l.emit(ir.Inst{Op: ir.Cmp, A: ir.R(tag), B: ir.Imm(cs.Value)})
		l.terminate(ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: armBlocks[i], Next: next})
		l.startBlock(next)
	}
	l.jumpTo(defaultB)
}

// lowerBinarySearch emits the classic compare-and-bisect tree. Flags
// persist across blocks, so each interior node is one Cmp followed by an
// EQ branch and an LT branch, as vpo generated on SPARC. Leaves degrade to
// short linear sequences, each of which the reordering pass may later pick
// up (the paper notes each binary search contributed several reorderable
// sequences).
func (l *lowerer) lowerBinarySearch(tag ir.Reg, vals []int64, blks []*ir.Block, defaultB *ir.Block) {
	start := l.binTree(tag, vals, blks, defaultB, 0, len(vals)-1)
	l.jumpTo(start)
	l.cur = nil
}

// binTree builds blocks for cases[lo..hi] and returns the entry block.
func (l *lowerer) binTree(tag ir.Reg, vals []int64, blks []*ir.Block, defaultB *ir.Block, lo, hi int) *ir.Block {
	const leafMax = 3
	if hi-lo+1 <= leafMax {
		// Linear leaf.
		entry := l.newBlock()
		cur := entry
		for i := lo; i <= hi; i++ {
			cur.Insts = append(cur.Insts, ir.Inst{Op: ir.Cmp, A: ir.R(tag), B: ir.Imm(vals[i])})
			var next *ir.Block
			if i == hi {
				next = defaultB
			} else {
				next = l.newBlock()
			}
			cur.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: blks[i], Next: next}
			cur = next
		}
		return entry
	}
	mid := (lo + hi) / 2
	eqB := l.newBlock()
	ltB := l.newBlock()
	left := l.binTree(tag, vals, blks, defaultB, lo, mid-1)
	right := l.binTree(tag, vals, blks, defaultB, mid+1, hi)
	eqB.Insts = append(eqB.Insts, ir.Inst{Op: ir.Cmp, A: ir.R(tag), B: ir.Imm(vals[mid])})
	eqB.Term = ir.Term{Kind: ir.TermBr, Rel: ir.EQ, Taken: blks[mid], Next: ltB}
	// Flags still hold (tag ? vals[mid]); no second compare needed.
	ltB.Term = ir.Term{Kind: ir.TermBr, Rel: ir.LT, Taken: left, Next: right}
	return eqB
}

// lowerIndirect emits a bounds-checked jump through a dense table, the
// translation whose cost motivates Heuristic Set II on the Ultra.
func (l *lowerer) lowerIndirect(tag ir.Reg, vals []int64, blks []*ir.Block, defaultB *ir.Block) {
	lo := vals[0]
	hi := vals[len(vals)-1]
	idx := tag
	if lo != 0 {
		idx = l.f.NewReg()
		l.emit(ir.Inst{Op: ir.Sub, Dst: idx, A: ir.R(tag), B: ir.Imm(lo)})
	}
	inRange := l.newBlock()
	l.emit(ir.Inst{Op: ir.Cmp, A: ir.R(idx), B: ir.Imm(0)})
	l.terminate(ir.Term{Kind: ir.TermBr, Rel: ir.LT, Taken: defaultB, Next: inRange})
	l.startBlock(inRange)
	doJump := l.newBlock()
	l.emit(ir.Inst{Op: ir.Cmp, A: ir.R(idx), B: ir.Imm(hi - lo)})
	l.terminate(ir.Term{Kind: ir.TermBr, Rel: ir.GT, Taken: defaultB, Next: doJump})
	l.startBlock(doJump)
	targets := make([]*ir.Block, hi-lo+1)
	for i := range targets {
		targets[i] = defaultB
	}
	for i, v := range vals {
		targets[v-lo] = blks[i]
	}
	l.terminate(ir.Term{Kind: ir.TermIJmp, Index: ir.R(idx), Targets: targets})
}
