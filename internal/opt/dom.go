package opt

import "branchreorder/internal/ir"

// domInfo answers dominance queries over a function's CFG.
type domInfo struct {
	dom bitsets // set id: IDs of the blocks dominating the block with that ID
}

// computeDominators runs the classic iterative dominator dataflow over the
// predecessor lists preds (see ir.PredBuf).
func computeDominators(f *ir.Func, preds [][]*ir.Block) *domInfo {
	n := len(preds)
	d := &domInfo{dom: newBitsets(n+2, n)}
	all, nd := d.dom.at(n), d.dom.at(n+1)
	for id := 0; id < n; id++ {
		all.set(ir.Reg(id))
	}
	for _, b := range f.Blocks {
		d.dom.at(b.ID).copyFrom(all)
	}
	entry := f.Entry()
	clear(d.dom.at(entry.ID))
	d.dom.at(entry.ID).set(ir.Reg(entry.ID))

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == entry {
				continue
			}
			// No predecessors: unreachable; dominated by everything.
			nd.copyFrom(all)
			for _, p := range preds[b.ID] {
				for w, pw := range d.dom.at(p.ID) {
					nd[w] &= pw
				}
			}
			nd.set(ir.Reg(b.ID))
			if dom := d.dom.at(b.ID); !bitsetEqual(nd, dom) {
				dom.copyFrom(nd)
				changed = true
			}
		}
	}
	return d
}

func bitsetEqual(a, b bitset) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dominates reports whether definition point (db, di) dominates use point
// (ub, ui); instruction indices order points within a block, and the
// terminator is position len(Insts).
func (d *domInfo) dominates(db *ir.Block, di int, ub *ir.Block, ui int) bool {
	if db == ub {
		return di < ui
	}
	return d.dom.at(ub.ID).get(ir.Reg(db.ID))
}
