package ir

// Linearize lays out every function and assigns program-unique IDs to the
// conditional branches. It must run (again) after any pass that changes
// control flow and before the program is interpreted or measured.
//
// Layout performs the "code repositioning ... to minimize unconditional
// jumps" step the paper reinvokes after reordering: blocks are chained
// greedily along fall-through edges, conditional branches are inverted when
// that makes their fall-through successor adjacent, and a trampoline goto
// block is materialized only when neither successor can be adjacent. After
// Linearize, every TermBr's Next is the block that physically follows it,
// so a dynamic conditional branch costs exactly one instruction and an
// unconditional transfer costs one instruction exactly when it is a real
// jump (goto to a non-adjacent block).
func (p *Program) Linearize() {
	p.nextBranchID = 0
	for _, f := range p.Funcs {
		linearizeFunc(f, &p.nextBranchID)
	}
}

func linearizeFunc(f *Func, branchID *int) {
	RemoveUnreachable(f)
	stripNops(f)

	placed := make([]bool, IDBound(f)) // by Block.ID
	order := make([]*Block, 0, len(f.Blocks))

	// Greedy fall-through chaining. The seed loop walks the existing
	// block order so layout is deterministic.
	numSeeds := len(f.Blocks) // NewBlock below must not extend this walk
	for seed := 0; seed < numSeeds; seed++ {
		b := f.Blocks[seed]
		for b != nil && !placed[b.ID] {
			placed[b.ID] = true
			order = append(order, b)
			var next *Block
			switch b.Term.Kind {
			case TermGoto:
				if !placed[b.Term.Taken.ID] {
					next = b.Term.Taken
				}
			case TermBr:
				if !placed[b.Term.Next.ID] {
					next = b.Term.Next
				} else if !placed[b.Term.Taken.ID] {
					// Invert the branch so the unplaced
					// successor becomes the fall-through.
					b.Term.Rel = b.Term.Rel.Negate()
					b.Term.Taken, b.Term.Next = b.Term.Next, b.Term.Taken
					next = b.Term.Next
				}
			}
			b = next
		}
	}

	// Materialize trampolines for conditional branches that still cannot
	// fall through, and fix adjacency by inversion where possible.
	final := make([]*Block, 0, len(order))
	for i, b := range order {
		final = append(final, b)
		if b.Term.Kind != TermBr {
			continue
		}
		var follower *Block
		if i+1 < len(order) {
			follower = order[i+1]
		}
		if b.Term.Next == follower {
			continue
		}
		if b.Term.Taken == follower {
			b.Term.Rel = b.Term.Rel.Negate()
			b.Term.Taken, b.Term.Next = b.Term.Next, b.Term.Taken
			continue
		}
		tramp := f.NewBlock() // appended to f.Blocks, which is replaced below
		tramp.Term = Term{Kind: TermGoto, Taken: b.Term.Next}
		b.Term.Next = tramp
		final = append(final, tramp)
	}

	f.Blocks = final
	for i, b := range final {
		b.LayoutIndex = i
		if b.Term.Kind == TermBr {
			b.Term.BranchID = *branchID
			*branchID++
		}
	}
}

func stripNops(f *Func) {
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for i := range b.Insts {
			if b.Insts[i].Op != Nop {
				kept = append(kept, b.Insts[i])
			}
		}
		b.Insts = kept
	}
}
