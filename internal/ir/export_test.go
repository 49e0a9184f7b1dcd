package ir

// SetNextBlockID and SetNextBranchID let external tests move the
// allocators, which no exported API sets directly.
func SetNextBlockID(f *Func, n int) { f.nextID = n }

func SetNextBranchID(p *Program, n int) { p.nextBranchID = n }

// NextBlockID reports f's block-ID allocator.
func NextBlockID(f *Func) int { return f.nextID }

// NextBranchID reports the number of conditional branches assigned IDs by
// the last Linearize (IDs are 0..NextBranchID-1).
func (p *Program) NextBranchID() int { return p.nextBranchID }

// VerifyFlags runs Verify's condition-code check on one function.
func VerifyFlags(f *Func) error { return verifyFlags(f) }
