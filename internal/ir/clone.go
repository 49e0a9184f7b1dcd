package ir

import "slices"

// CloneInst returns a deep copy of an instruction (the Args slice is the
// only reference field).
func CloneInst(in Inst) Inst {
	out := in
	if in.Args != nil {
		out.Args = append([]Operand(nil), in.Args...)
	}
	return out
}

// CloneFunc returns a deep copy of a function whose edges stay inside
// it, as Verify checks.
func CloneFunc(f *Func) *Func {
	nf := &Func{Name: f.Name, NParams: f.NParams, NRegs: f.NRegs, Blocks: make([]*Block, len(f.Blocks))}
	clones := make([]*Block, IDBound(f)) // by Block.ID
	blocks := make([]Block, len(f.Blocks))
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	insts := make([]Inst, n)
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.ID, nb.LayoutIndex = b.ID, b.LayoutIndex
		nb.Insts, insts = insts[:len(b.Insts):len(b.Insts)], insts[len(b.Insts):]
		for j := range b.Insts {
			nb.Insts[j] = CloneInst(b.Insts[j])
		}
		clones[b.ID] = nb
		nf.Blocks[i] = nb
	}
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		nb.Term = b.Term
		nb.Term.Taken = At(clones, b.Term.Taken)
		nb.Term.Next = At(clones, b.Term.Next)
		if b.Term.Targets != nil {
			nb.Term.Targets = make([]*Block, len(b.Term.Targets))
			for j, t := range b.Term.Targets {
				nb.Term.Targets[j] = At(clones, t)
			}
		}
	}
	// Preserve the original's block-ID allocator, not just max+1:
	// deleted blocks can leave nextID past the highest live ID, and a
	// clone must allocate the same fresh IDs the original would so
	// passes running on either produce identical programs.
	nf.SyncNextID()
	if f.nextID > nf.nextID {
		nf.nextID = f.nextID
	}
	return nf
}

// CloneProgram returns a deep copy of a program. Funcs, blocks and globals
// are all fresh, and each global's Init, its initialized prefix, is
// copied; Call instructions refer to callees by name so they need no
// fixup.
func CloneProgram(p *Program) *Program {
	np := &Program{MemSize: p.MemSize, nextBranchID: p.nextBranchID,
		Funcs: make([]*Func, len(p.Funcs)), Globals: make([]*Global, len(p.Globals))}
	for i, f := range p.Funcs {
		np.Funcs[i] = CloneFunc(f)
	}
	globals := make([]Global, len(p.Globals))
	for i, g := range p.Globals {
		globals[i] = *g
		globals[i].Init = slices.Clone(g.Init)
		np.Globals[i] = &globals[i]
	}
	return np
}
