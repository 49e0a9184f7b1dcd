package opt

import "branchreorder/internal/ir"

// maxRounds bounds the optimize-to-fixpoint loop; each round strictly
// shrinks or simplifies the function, so this is a safety net only.
const maxRounds = 50

// Function runs the conventional optimization pipeline on one function
// until a fixed point (or the round cap) is reached. The passes that need
// predecessors recompute them, since SimplifyControl changes edges, but
// all of them fill buf.
func Function(f *ir.Func, buf *ir.PredBuf) {
	for round := 0; round < maxRounds; round++ {
		changed := false
		if Propagate(f) {
			changed = true
		}
		if GlobalPropagate(f, buf) {
			changed = true
		}
		if SimplifyControl(f, buf) {
			changed = true
		}
		if RedundantCmpElim(f, buf) {
			changed = true
		}
		if DeadCodeElim(f) {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// Program optimizes every function of a program. The caller must
// re-linearize before executing or measuring.
func Program(p *ir.Program) {
	var buf ir.PredBuf // one function's predecessors at a time
	for _, f := range p.Funcs {
		Function(f, &buf)
	}
}
