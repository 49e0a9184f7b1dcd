package core

import (
	"fmt"

	"branchreorder/internal/ir"
)

// Cond is one detected range condition (paper Definition 2): one or two
// compare-and-branch blocks testing whether the sequence's variable lies
// in R, exiting to Exit when it does and falling to the next condition
// otherwise.
type Cond struct {
	R      Range
	Exit   *ir.Block
	Blocks []*ir.Block // 1 block, or 2 for a Form 4 (bounded) condition

	// SideEffects are the instructions preceding the comparison in the
	// condition's first block: the paper's intervening side effects,
	// sunk onto the sequence's exit edges by the transformation
	// (Theorem 2). Always empty for the first condition (the head is
	// split so its prefix stays ahead of the sequence).
	SideEffects []ir.Inst

	next *ir.Block // continuation when the condition is not satisfied
}

// NumBranches reports the conditional branches this condition executes.
func (c *Cond) NumBranches() int { return len(c.Blocks) }

// Sequence is a detected reorderable sequence of range conditions
// (Definition 4) in function F, testing register V.
type Sequence struct {
	ID   int
	F    *ir.Func
	V    ir.Reg
	Head *ir.Block // first block of the first condition; Prof lives here
	// PreHead is the block holding the head's former instruction prefix
	// after splitting, or nil if the head had no prefix.
	PreHead       *ir.Block
	Conds         []*Cond
	DefaultTarget *ir.Block

	// Arms holds the ordering candidates: one per explicit condition, in
	// original order, followed by one per default range. Probabilities
	// are zero until a profile is attached.
	Arms []Arm
	// ArmCond maps arm index to the index of its original condition, or
	// len(Conds) for default-range arms (used when sinking side effects:
	// exiting through arm k means conditions before ArmCond[k] failed).
	ArmCond []int
}

// OrigBranches is the number of conditional branches in the original
// sequence (the "Orig" sequence length of Table 8 and Figures 11-13).
func (s *Sequence) OrigBranches() int {
	n := 0
	for _, c := range s.Conds {
		n += c.NumBranches()
	}
	return n
}

// String renders a sequence compactly for debugging.
func (s *Sequence) String() string {
	out := fmt.Sprintf("seq %d in %s on r%d:", s.ID, s.F.Name, s.V)
	for _, c := range s.Conds {
		out += fmt.Sprintf(" %v->B%d", c.R, c.Exit.ID)
	}
	out += fmt.Sprintf(" default B%d", s.DefaultTarget.ID)
	return out
}

// Detect finds every reorderable sequence in the program, splits sequence
// heads so external predecessors stay ahead of the conditions, and inserts
// a Prof instruction at each head so a training run can record how often
// each range exits the sequence. Sequence IDs start at firstID. The
// program must be re-linearized before execution.
func Detect(p *ir.Program, firstID int) []*Sequence {
	var seqs []*Sequence
	var buf ir.PredBuf // one function's predecessors at a time
	id := firstID
	for _, f := range p.Funcs {
		for _, s := range detectFunc(f, buf.Preds(f)) {
			s.ID = id
			id++
			instrument(s)
			seqs = append(seqs, s)
		}
	}
	return seqs
}

// detectFunc implements the Figure 4 search over one function, whose
// predecessor lists are preds.
func detectFunc(f *ir.Func, preds [][]*ir.Block) []*Sequence {
	d := &detector{
		f:         f,
		preds:     preds,
		needFlags: ir.NeedFlags(f),
		marked:    map[*ir.Block]bool{},
	}
	var seqs []*Sequence
	// Walk a snapshot of the block list in layout order; blocks created
	// by head splitting are deliberately not revisited.
	blocks := append([]*ir.Block(nil), f.Blocks...)
	for _, b := range blocks {
		if d.marked[b] {
			continue
		}
		seq := d.trySequence(b)
		if seq == nil {
			continue
		}
		splitHead(f, seq)
		for _, c := range seq.Conds {
			for _, blk := range c.Blocks {
				d.marked[blk] = true
			}
		}
		d.marked[seq.Head] = true
		seqs = append(seqs, seq)
	}
	return seqs
}

// detector holds the analyses of one function, taken before any head is
// split: preds and needFlags are indexed by Block.ID (ir.PredBuf,
// ir.NeedFlags), and read through ir.At, so a block split off later has
// no predecessors and needs no flags.
type detector struct {
	f         *ir.Func
	preds     [][]*ir.Block
	needFlags []bool
	marked    map[*ir.Block]bool
	budget    int
}

// parse is one interpretation of a block (or block pair) as a range
// condition.
type parse struct {
	cond Cond
	v    ir.Reg
}

// trySequence attempts to root a reorderable sequence at head, returning
// the longest interpretation with at least two conditions (the
// Find_First_Two_Conds + extension loop of Figure 4).
func (d *detector) trySequence(head *ir.Block) *Sequence {
	d.budget = 4096
	visited := map[*ir.Block]bool{}
	cands := d.parseBlock(head, 0, false, true, nil, visited)
	var best []*Cond
	var bestV ir.Reg
	for _, c := range cands {
		conds := d.chain(c, nil, visited)
		if len(conds) > len(best) {
			best = conds
			bestV = c.v
		}
	}
	if len(best) < 2 {
		return nil
	}
	last := best[len(best)-1]
	if ir.At(d.needFlags, last.next) {
		return nil // default target consumes flags set inside the sequence
	}
	return &Sequence{
		F:             d.f,
		V:             bestV,
		Head:          head,
		Conds:         best,
		DefaultTarget: last.next,
	}
}

// chain accepts condition c and recursively extends the sequence through
// its continuation, returning the longest chain found (nil if c itself is
// unusable).
func (d *detector) chain(c parse, acc []Range, visited map[*ir.Block]bool) []*Cond {
	if ir.At(d.needFlags, c.cond.Exit) {
		// The exit target consumes flags set inside the sequence;
		// reordering would change what it sees.
		return nil
	}
	if d.budget <= 0 {
		return []*Cond{cloneCond(c.cond)}
	}
	d.budget--

	for _, b := range c.cond.Blocks {
		visited[b] = true
	}
	defer func() {
		for _, b := range c.cond.Blocks {
			delete(visited, b)
		}
	}()

	out := []*Cond{cloneCond(c.cond)}
	next := c.cond.next
	if !d.extendable(next, c.cond.Blocks, visited) {
		return out
	}
	acc = append(acc, c.cond.R)
	var bestTail []*Cond
	for _, cc := range d.parseBlock(next, c.v, true, false, acc, visited) {
		tail := d.chain(cc, acc, visited)
		if len(tail) > len(bestTail) {
			bestTail = tail
		}
	}
	return append(out, bestTail...)
}

// extendable reports whether block b can be an internal condition of the
// current sequence: unmarked, unvisited, and entered only through the
// blocks of the preceding condition (possibly via empty trampoline
// blocks), so the whole sequence is entered only at its head (Theorem 1's
// entry requirement).
func (d *detector) extendable(b *ir.Block, sources []*ir.Block, visited map[*ir.Block]bool) bool {
	return b != nil && !d.marked[b] && !visited[b] && d.enteredOnlyFrom(b, sources, 4)
}

// enteredOnlyFrom reports whether every predecessor of b is one of the
// source blocks, or an empty goto block (a layout trampoline) itself
// entered only from the sources.
func (d *detector) enteredOnlyFrom(b *ir.Block, sources []*ir.Block, depth int) bool {
	preds := ir.At(d.preds, b)
	if len(preds) == 0 {
		return false // entry block or unreachable
	}
predLoop:
	for _, p := range preds {
		for _, s := range sources {
			if p == s {
				continue predLoop
			}
		}
		if depth > 0 && isEmptyGoto(p) && d.enteredOnlyFrom(p, sources, depth-1) {
			continue
		}
		return false
	}
	return true
}

func isEmptyGoto(b *ir.Block) bool {
	return len(b.Insts) == 0 && b.Term.Kind == ir.TermGoto
}

// resolve follows empty goto blocks (layout trampolines) to the block
// that actually does something, so detection sees the logical CFG.
func (d *detector) resolve(b *ir.Block) *ir.Block {
	for hops := 0; hops < 8 && b != nil && isEmptyGoto(b); hops++ {
		b = b.Term.Taken
	}
	return b
}

func cloneCond(c Cond) *Cond {
	out := c
	out.Blocks = append([]*ir.Block(nil), c.Blocks...)
	out.SideEffects = append([]ir.Inst(nil), c.SideEffects...)
	return &out
}

// parseBlock returns the interpretations of b as a range condition
// (Find_Range_Cond in Figure 4). If vFixed, only conditions on register v
// qualify. acc holds the ranges already claimed by the sequence;
// interpretations overlapping them are dropped. Form 4 (two-block bounded
// range) interpretations come first, as in the paper's algorithm.
func (d *detector) parseBlock(b *ir.Block, v ir.Reg, vFixed, isHead bool, acc []Range, visited map[*ir.Block]bool) []parse {
	reg, c, rel, prefix, ok := d.parseCmpBr(b)
	if !ok {
		return nil
	}
	if vFixed && reg != v {
		return nil
	}
	// An internal condition's prefix becomes a sunk side effect, which
	// Theorem 2 forbids from modifying the branch variable; profiling
	// pseudo-instructions must stay put in either case. The head's
	// prefix is exempt: it is split off ahead of the sequence, so even a
	// "c = getchar()" feeding the comparison is fine there.
	for i := range prefix {
		if prefix[i].Op == ir.Prof || prefix[i].Op == ir.ProfCond {
			return nil
		}
		if !isHead && prefix[i].Def() == reg {
			return nil
		}
	}

	taken, next := d.resolve(b.Term.Taken), d.resolve(b.Term.Next)
	var out []parse
	single := func(r Range, exit, cont *ir.Block) {
		if !r.Valid() || !NonOverlapping(r, acc) {
			return
		}
		out = append(out, parse{
			v: reg,
			cond: Cond{
				R: r, Exit: exit, Blocks: []*ir.Block{b},
				SideEffects: append([]ir.Inst(nil), prefix...),
				next:        cont,
			},
		})
	}

	tr, nr, eqForm := splitRanges(rel, c)
	if eqForm {
		// EQ/NE: single-value range conditions only.
		if rel == ir.EQ {
			single(tr, taken, next)
		} else {
			single(nr, next, taken)
		}
		return out
	}

	// Form 4: this branch plus a branch in one successor can bound a
	// range, with the other successor common to both. Try both sides.
	for _, side := range []form4Side{
		{cont: next, common: taken, reach: nr},
		{cont: taken, common: next, reach: tr},
	} {
		if p := d.parseForm4(b, reg, side, acc, prefix, visited); p != nil {
			out = append(out, *p)
		}
	}

	// Single-branch interpretations: taken side first, as in Figure 4.
	single(tr, taken, next)
	single(nr, next, taken)
	return out
}

type form4Side struct {
	cont   *ir.Block // block holding the second compare
	common *ir.Block // this branch's own way out (the common successor)
	reach  Range     // values flowing into cont
}

// parseForm4 tries to combine b's branch with a compare-and-branch in
// side.cont, where side.common is b's other successor.
func (d *detector) parseForm4(b *ir.Block, v ir.Reg, side form4Side, acc []Range, prefix []ir.Inst, visited map[*ir.Block]bool) *parse {
	cont := side.cont
	if cont == nil || cont == b || d.marked[cont] || visited[cont] ||
		!d.enteredOnlyFrom(cont, []*ir.Block{b}, 4) {
		return nil
	}
	if !side.reach.Valid() {
		return nil
	}
	reg2, c2, rel2, prefix2, ok := d.parseCmpBr(cont)
	if !ok || reg2 != v || len(prefix2) != 0 {
		// A side effect between the two branches of one condition would
		// execute under different conditions after reordering; reject.
		return nil
	}
	tr2, nr2, eqForm2 := splitRanges(rel2, c2)
	if eqForm2 {
		return nil // EQ/NE as a second bound never yields a Form 4 range
	}
	var r Range
	var exit *ir.Block
	switch {
	case d.resolve(cont.Term.Taken) == side.common:
		r = intersect(side.reach, nr2)
		exit = d.resolve(cont.Term.Next)
	case d.resolve(cont.Term.Next) == side.common:
		r = intersect(side.reach, tr2)
		exit = d.resolve(cont.Term.Taken)
	default:
		return nil
	}
	if !r.Valid() || !r.BoundedBothEnds() || !NonOverlapping(r, acc) {
		return nil
	}
	return &parse{
		v: v,
		cond: Cond{
			R: r, Exit: exit, Blocks: []*ir.Block{b, cont},
			SideEffects: append([]ir.Inst(nil), prefix...),
			next:        side.common,
		},
	}
}

// parseCmpBr decodes a block as [prefix insts] + Cmp(reg, const) +
// conditional branch. Compares with the constant on the left are
// normalized by transposing the relation.
func (d *detector) parseCmpBr(b *ir.Block) (reg ir.Reg, c int64, rel ir.Rel, prefix []ir.Inst, ok bool) {
	if b.Term.Kind != ir.TermBr || len(b.Insts) == 0 {
		return 0, 0, 0, nil, false
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Op != ir.Cmp {
		return 0, 0, 0, nil, false
	}
	rel = b.Term.Rel
	switch {
	case !last.A.IsImm && last.B.IsImm:
		reg, c = last.A.Reg, last.B.Imm
	case last.A.IsImm && !last.B.IsImm:
		reg, c = last.B.Reg, last.A.Imm
		rel = transpose(rel)
	default:
		return 0, 0, 0, nil, false
	}
	return reg, c, rel, b.Insts[:len(b.Insts)-1], true
}

// transpose converts "const REL reg" into "reg REL' const".
func transpose(r ir.Rel) ir.Rel {
	switch r {
	case ir.LT:
		return ir.GT
	case ir.LE:
		return ir.GE
	case ir.GT:
		return ir.LT
	case ir.GE:
		return ir.LE
	default:
		return r // EQ, NE symmetric
	}
}

// splitRanges returns the taken-side and fall-through-side value ranges of
// a "reg REL const" branch. eqForm reports the EQ/NE case where only the
// single-value side is contiguous.
func splitRanges(rel ir.Rel, c int64) (taken, next Range, eqForm bool) {
	switch rel {
	case ir.EQ:
		return Range{c, c}, Range{}, true
	case ir.NE:
		return Range{}, Range{c, c}, true
	case ir.LT:
		return rangeBelow(c), Range{c, ir.MaxVal}, false
	case ir.LE:
		return Range{ir.MinVal, c}, rangeAbove(c), false
	case ir.GT:
		return rangeAbove(c), Range{ir.MinVal, c}, false
	default: // GE
		return Range{c, ir.MaxVal}, rangeBelow(c), false
	}
}

// rangeAbove returns [c+1, MAX]; invalid when c is already MAX.
func rangeAbove(c int64) Range {
	if c == ir.MaxVal {
		return Range{1, 0}
	}
	return Range{c + 1, ir.MaxVal}
}

// rangeBelow returns [MIN, c-1]; invalid when c is already MIN.
func rangeBelow(c int64) Range {
	if c == ir.MinVal {
		return Range{1, 0}
	}
	return Range{ir.MinVal, c - 1}
}

func intersect(a, b Range) Range {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	return Range{lo, hi}
}

// splitHead separates the head block's instruction prefix from its
// comparison so the sequence proper contains only compares and branches
// (Section 4: "it could be split apart into the portion with the side
// effect and the portion without one"). The original block keeps the
// prefix (so external edges still execute it) and jumps to a new block
// holding the comparison, which becomes the sequence head.
func splitHead(f *ir.Func, seq *Sequence) {
	head := seq.Head
	cmpIdx := len(head.Insts) - 1 // parseCmpBr guarantees the Cmp is last
	if cmpIdx == 0 {
		return // no prefix; the head is already pure
	}
	cond := f.NewBlock()
	cond.Insts = append(cond.Insts, head.Insts[cmpIdx:]...)
	cond.Term = head.Term
	head.Insts = head.Insts[:cmpIdx]
	head.Term = ir.Term{Kind: ir.TermGoto, Taken: cond}

	first := seq.Conds[0]
	for i, b := range first.Blocks {
		if b == head {
			first.Blocks[i] = cond
		}
	}
	first.SideEffects = nil
	seq.PreHead = head
	seq.Head = cond
}

// instrument inserts the profiling pseudo-instruction at the sequence
// head (Section 5: "the instrumentation code ... was entirely inserted at
// the head of the sequence").
func instrument(seq *Sequence) {
	prof := ir.Inst{Op: ir.Prof, SeqID: seq.ID, A: ir.R(seq.V)}
	seq.Head.Insts = append([]ir.Inst{prof}, seq.Head.Insts...)
}
