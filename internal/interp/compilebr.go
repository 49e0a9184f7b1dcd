// Specialized conditional-branch closures. Interpreting relMask at run
// time means deriving a relation selector rs from the compare, shifting
// the mask and testing a bit — a five-instruction dependent chain
// ending in a branch. Here the mask is decoded at compile time instead,
// so each branch closure executes one native compare-and-branch on the
// operands; the six relations give six distinct host branch sites (plus
// six more per operand shape), which also stops every interpreted
// branch from aliasing onto a single host predictor slot, as a dispatch
// loop's branch case does.
//
// The relation selector convention (maskHolds): rs is 2 when a < b, 1
// when a == b, 0 when a > b, and relMask bit rs set means the branch is
// taken. So mask 0b100 is <, 0b110 <=, 0b010 ==, 0b101 !=, 0b001 >,
// 0b011 >=. Degenerate masks (never/always taken) and unusual operand
// shapes keep a mask-table body.
package interp

// compileBranch compiles opBr/opCmpBr. Branch (+compare for CmpBr)
// charges precede the step check, the outcome's TakenBranches/SlotNops
// ride in the per-outcome counters, and each outcome then stores its
// branch event while the machine's log is on.
func (cc *funcCompiler) compileBranch(op dop, d *dinst, pre Stats) blockFn {
	fname := cc.fname
	isCmp := op == opCmpBr
	stepCost := uint64(d.stepCost) + 1
	charge := Stats{CondBranches: 1, Insts: uint64(d.cost) + 1}
	if isCmp {
		charge.Cmps = 1
	}
	stepPartial := plus(pre, charge)
	partial := &stepPartial
	idTaken := cc.newCounter(plus(stepPartial, Stats{TakenBranches: 1, SlotNops: uint64(d.slotTaken)}))
	idFall := cc.newCounter(plus(stepPartial, Stats{SlotNops: uint64(d.slotFall)}))
	takenFb, takenp := cc.succ(d.t1)
	fallFb, fallp := cc.succ(d.t2)
	evFall := uint32(d.branchID) << 1
	evTaken := evFall | 1

	if isCmp {
		a, b := d.a, d.b
		if a.reg >= 0 && b.reg < 0 {
			aReg, bImm := a.reg, b.imm
			switch d.relMask {
			case 0b100: // <
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA < cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b110: // <=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA <= cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b010: // ==
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA == cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b101: // !=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA != cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b001: // >
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA > cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b011: // >=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], bImm
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA >= cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			}
		} else if a.reg >= 0 && b.reg >= 0 {
			aReg, bReg := a.reg, b.reg
			switch d.relMask {
			case 0b100: // <
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA < cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b110: // <=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA <= cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b010: // ==
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA == cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b101: // !=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA != cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b001: // >
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA > cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			case 0b011: // >=
				return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
					cmpA, cmpB = w[aReg], w[bReg]
					steps += stepCost
					if steps > m.maxSteps {
						return m.stepTrap(partial, fname)
					}
					if cmpA >= cmpB {
						m.counts[idTaken]++
						if m.log.on && m.log.add(evTaken) {
							m.log.flush()
						}
						if takenFb != nil {
							return takenFb(m, w, cmpA, cmpB, true, steps)
						}
						return *takenp, w, cmpA, cmpB, true, steps
					}
					m.counts[idFall]++
					if m.log.on && m.log.add(evFall) {
						m.log.flush()
					}
					if fallFb != nil {
						return fallFb(m, w, cmpA, cmpB, true, steps)
					}
					return *fallp, w, cmpA, cmpB, true, steps
				}
			}
		}
		// Unusual operand shape or degenerate mask: mask-table body.
		ids, evs, direct, slots := branchTables(d.relMask, idTaken, idFall, evTaken, evFall, takenFb, fallFb, takenp, fallp)
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			cmpA, cmpB = a.val(w), b.val(w)
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			rs := 0
			if cmpA < cmpB {
				rs = 2
			} else if cmpA == cmpB {
				rs = 1
			}
			m.counts[ids[rs]]++
			if m.log.on && m.log.add(evs[rs]) {
				m.log.flush()
			}
			if fb := direct[rs]; fb != nil {
				return fb(m, w, cmpA, cmpB, true, steps)
			}
			return *slots[rs], w, cmpA, cmpB, true, steps
		}
	}

	// Plain opBr: the relation tests the incoming condition codes.
	undefPartial := &pre
	switch d.relMask {
	case 0b100: // <
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA < cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	case 0b110: // <=
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA <= cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	case 0b010: // ==
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA == cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	case 0b101: // !=
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA != cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	case 0b001: // >
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA > cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	case 0b011: // >=
		return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
			if !flags {
				return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
			}
			steps += stepCost
			if steps > m.maxSteps {
				return m.stepTrap(partial, fname)
			}
			if cmpA >= cmpB {
				m.counts[idTaken]++
				if m.log.on && m.log.add(evTaken) {
					m.log.flush()
				}
				if takenFb != nil {
					return takenFb(m, w, cmpA, cmpB, flags, steps)
				}
				return *takenp, w, cmpA, cmpB, flags, steps
			}
			m.counts[idFall]++
			if m.log.on && m.log.add(evFall) {
				m.log.flush()
			}
			if fallFb != nil {
				return fallFb(m, w, cmpA, cmpB, flags, steps)
			}
			return *fallp, w, cmpA, cmpB, flags, steps
		}
	}
	ids, evs, direct, slots := branchTables(d.relMask, idTaken, idFall, evTaken, evFall, takenFb, fallFb, takenp, fallp)
	return func(m *ClosureMachine, w []int64, cmpA, cmpB int64, flags bool, steps uint64) (blockFn, []int64, int64, int64, bool, uint64) {
		if !flags {
			return m.trap(undefPartial, fname, "conditional branch with undefined condition codes")
		}
		steps += stepCost
		if steps > m.maxSteps {
			return m.stepTrap(partial, fname)
		}
		rs := 0
		if cmpA < cmpB {
			rs = 2
		} else if cmpA == cmpB {
			rs = 1
		}
		m.counts[ids[rs]]++
		if m.log.on && m.log.add(evs[rs]) {
			m.log.flush()
		}
		if fb := direct[rs]; fb != nil {
			return fb(m, w, cmpA, cmpB, flags, steps)
		}
		return *slots[rs], w, cmpA, cmpB, flags, steps
	}
}

// branchTables spreads a branch's two outcomes over the three relation
// selectors so the outcome is a table lookup instead of a mask test.
func branchTables(relMask uint8, idTaken, idFall int, evTaken, evFall uint32, takenFb, fallFb blockFn, takenp, fallp *blockFn) ([3]int, [3]uint32, [3]blockFn, [3]*blockFn) {
	var ids [3]int
	var evs [3]uint32
	var direct [3]blockFn
	var slots [3]*blockFn
	for rs := 0; rs < 3; rs++ {
		if relMask>>rs&1 != 0 {
			ids[rs], evs[rs], direct[rs], slots[rs] = idTaken, evTaken, takenFb, takenp
		} else {
			ids[rs], evs[rs], direct[rs], slots[rs] = idFall, evFall, fallFb, fallp
		}
	}
	return ids, evs, direct, slots
}
