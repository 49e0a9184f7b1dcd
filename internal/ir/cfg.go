package ir

// The CFG analyses keep per-block data in slices indexed by Block.ID.
// Within a function IDs are unique and non-negative (Verify checks both),
// so such a slice has IDBound(f) entries; ID gaps left by deleted blocks
// cost one unused entry each. A block created after a slice was computed
// (a split sequence head, a layout trampoline) has an ID past its end,
// and At reads it as the zero value.

// IDBound returns one more than the largest block ID in f, taken from the
// blocks themselves rather than the allocator, so a function built by hand
// without SyncNextID sizes its analyses correctly.
func IDBound(f *Func) int {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	return n
}

// At returns s[b.ID], or the zero value when b is nil or its ID lies
// outside s.
func At[T any](s []T, b *Block) (v T) {
	if b != nil && uint(b.ID) < uint(len(s)) {
		v = s[b.ID]
	}
	return v
}

// PredBuf holds predecessor lists. A pass pipeline recomputes them after
// each change to the edges, and filling one PredBuf each time allocates
// them only when a function needs more room than the last.
type PredBuf struct {
	preds [][]*Block
	all   []*Block
	count []int32
	succs []*Block
}

// Preds returns each block's predecessors, indexed by Block.ID. A list
// follows f.Blocks order and names a block at most once, even if several
// of its terminator edges lead to the same successor. All lists share
// one backing array, the buffer's, so they are valid until its next
// Preds call.
func (pb *PredBuf) Preds(f *Func) [][]*Block {
	preds := resize(pb.preds, IDBound(f))
	count := resize(pb.count, len(preds))
	total := 0
	succs := pb.succs
	for _, b := range f.Blocks {
		succs = b.Term.Succs(succs[:0])
		for _, s := range succs {
			count[s.ID]++
		}
		total += len(succs)
	}
	all := resize(pb.all, total)
	pb.preds, pb.count, pb.all = preds, count, all
	for id, n := range count {
		preds[id], all = all[:0:n], all[n:]
	}
	for _, b := range f.Blocks {
		succs = b.Term.Succs(succs[:0])
		for _, s := range succs {
			// b's edges are listed together, so an earlier edge from b
			// to s left b last in s's list.
			if p := preds[s.ID]; len(p) == 0 || p[len(p)-1] != b {
				preds[s.ID] = append(p, b)
			}
		}
	}
	pb.succs = succs
	return preds
}

// resize returns s cleared to n elements, reusing its array if it fits.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Reachable reports, indexed by Block.ID, which blocks the entry reaches.
func Reachable(f *Func) []bool {
	seen := make([]bool, IDBound(f))
	entry := f.Entry()
	seen[entry.ID] = true
	stack := []*Block{entry}
	var succs []*Block
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = b.Term.Succs(succs[:0])
		for _, s := range succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// reports whether anything was removed.
func RemoveUnreachable(f *Func) bool {
	live := Reachable(f)
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if live[b.ID] {
			kept = append(kept, b)
		}
	}
	removed := len(kept) < len(f.Blocks)
	f.Blocks = kept
	return removed
}

// hasCmp reports whether b sets the condition codes.
func hasCmp(b *Block) bool {
	for i := range b.Insts {
		if b.Insts[i].Op == Cmp {
			return true
		}
	}
	return false
}

// NeedFlags reports, indexed by Block.ID, whether the condition codes on
// entry to each block may be consumed before a Cmp redefines them: the
// block sets no flags and ends in a conditional branch, or leads without
// one to a block that needs them. Dead-comparison elimination deletes a
// block's last Cmp when no successor needs its flags, and detection
// refuses a sequence whose exits need the flags it sets, because
// reordering changes which comparison they would inherit.
func NeedFlags(f *Func) []bool {
	need := make([]bool, IDBound(f))
	sets := make([]bool, len(need))
	for _, b := range f.Blocks {
		sets[b.ID] = hasCmp(b)
	}
	var succs []*Block
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			v := false
			if !sets[b.ID] {
				v = b.Term.Kind == TermBr
				succs = b.Term.Succs(succs[:0])
				for _, s := range succs {
					v = v || need[s.ID]
				}
			}
			if v != need[b.ID] {
				need[b.ID] = v
				changed = true
			}
		}
	}
	return need
}
