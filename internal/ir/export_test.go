package ir

// SetNextBlockID and SetNextBranchID let external tests move the
// allocators, which no exported API sets directly.
func SetNextBlockID(f *Func, n int) { f.nextID = n }

func SetNextBranchID(p *Program, n int) { p.nextBranchID = n }

// NextBlockID reports f's block-ID allocator.
func NextBlockID(f *Func) int { return f.nextID }
