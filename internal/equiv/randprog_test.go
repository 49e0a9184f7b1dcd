package equiv

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/opt"
	"branchreorder/internal/randprog"
	"branchreorder/internal/workload"
)

// randMaxSteps bounds random-program runs: generated CFGs loop freely,
// and the step-limit path is itself part of the contract under test.
const randMaxSteps = 1 << 15

type engineRun struct {
	ret      int64
	err      string
	out      string
	stats    interp.Stats
	branches []int64
	profs    []int64
	counts   [][]uint64 // the arm tables' counters
}

// profSeqs bounds the sequence IDs of the Prof instructions addProfs
// inserts, -1 included; profTables gives tables to some of them, so the
// others reach OnProf.
const profSeqs = 6

// addProfs inserts a Prof instruction into about half the blocks of p, at
// a random point, reading a random register under a random sequence ID
// in [-1, profSeqs). The generator emits only ProfCond, and its output
// is pinned, so the engines' arm tables get their Prof instructions
// here.
func addProfs(p *ir.Program, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if rng.Intn(2) == 0 {
				continue
			}
			in := ir.Inst{Op: ir.Prof, SeqID: rng.Intn(profSeqs+1) - 1, A: ir.R(ir.Reg(rng.Intn(f.NRegs)))}
			b.Insts = slices.Insert(b.Insts, rng.Intn(len(b.Insts)+1), in)
		}
	}
}

// profTables returns fresh arm tables for sequences 0 to profSeqs-3, a
// quarter of them left nil, and their counters, drawn from seed: 1-5
// arms, some windows too wide to index densely, and a countdown of rate
// 1-3.
func profTables(seed uint64) ([]*interp.ArmTable, [][]uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tables := make([]*interp.ArmTable, profSeqs-2)
	counts := make([][]uint64, len(tables))
	for id := range tables {
		if rng.Intn(4) == 0 {
			continue
		}
		los, n := []int64{math.MinInt64}, 1+rng.Intn(5)
		for bound := int64(rng.Intn(40) - 10); len(los) < n; bound += 1 + int64(rng.Intn(8)) {
			if rng.Intn(6) == 0 {
				bound += 5000
			}
			los = append(los, bound)
		}
		rate := 1 + uint64(rng.Intn(3))
		counts[id] = make([]uint64, len(los))
		tables[id] = interp.NewArmTable(los, rng.Perm(len(los)), counts[id], rate, uint64(rng.Int63n(int64(rate))))
	}
	return tables, counts
}

func hooks(r *engineRun) (func(int, bool), func(int, int, int64)) {
	return func(id int, taken bool) {
			tk := int64(0)
			if taken {
				tk = 1
			}
			r.branches = append(r.branches, int64(id), tk)
		}, func(seq, sub int, v int64) {
			r.profs = append(r.profs, int64(seq), int64(sub), v)
		}
}

// runBoth executes p, with Prof instructions added from seed, on both
// engines and applies the two-way oracle: the caller compares the
// reference machine against the closure engine under the lenient
// contract (compareRuns), and runBoth holds a hooked closure run to a
// hook-free one under strict identity (compareSame). The hook-free
// run's closure bodies take the log-off path.
func runBoth(t testing.TB, p *ir.Program, seed uint64, input []byte) (ref, clos engineRun) {
	addProfs(p, seed)
	ref = runOn(t, p, input, interp.EngineReference, true, seed)
	clos = runOn(t, p, input, interp.EngineClosure, true, seed)
	// A hook-free run records no streams and counts nothing; everything
	// else must match.
	plain := runOn(t, p, input, interp.EngineClosure, false, seed)
	plain.branches, plain.profs, plain.counts = clos.branches, clos.profs, clos.counts
	compareSame(t, "hooked-vs-plain", clos, plain)
	return ref, clos
}

// runOn executes p once on the chosen engine. hooked attaches the
// branch/prof recorders and the arm tables profTables draws from seed;
// without them the engines' logs stay off.
func runOn(t testing.TB, p *ir.Program, input []byte, e interp.Engine, hooked bool, seed uint64) (r engineRun) {
	t.Helper()
	var onBranch func(int, bool)
	var onProf func(int, int, int64)
	var tables []*interp.ArmTable
	if hooked {
		onBranch, onProf = hooks(&r)
		tables, r.counts = profTables(seed)
	}
	var ret int64
	var err error
	if e == interp.EngineReference {
		m := &interp.Machine{Prog: p, Input: input, MaxSteps: randMaxSteps,
			OnBranch: onBranch, ArmTables: tables, OnProf: onProf}
		ret, err = m.Run()
		r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	} else {
		code, derr := interp.Decode(p)
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		m := &interp.ClosureMachine{Code: code, Input: input, MaxSteps: randMaxSteps,
			OnBranch: onBranch, ArmTables: tables, OnProf: onProf}
		ret, err = m.Run()
		r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareRuns applies the engine contract: completed runs agree on
// everything; trapped runs agree on the error, except around a step-limit
// abort, where the closure engine's block-granular budget may surface as
// a different abort point (both sides must still abort).
func compareRuns(t testing.TB, label string, ref, clos engineRun) {
	t.Helper()
	stepLimited := strings.Contains(ref.err, "step limit") || strings.Contains(clos.err, "step limit")
	if stepLimited {
		if ref.err == "" || clos.err == "" {
			t.Errorf("%s: step-limit abort on one engine only: ref=%q closure=%q",
				label, ref.err, clos.err)
		}
		return
	}
	if ref.err != clos.err {
		t.Errorf("%s: errors differ: ref=%q closure=%q", label, ref.err, clos.err)
		return
	}
	// Same trap (or none): the executed effect sequence is identical.
	if ref.ret != clos.ret && ref.err == "" {
		t.Errorf("%s: ret ref=%d closure=%d", label, ref.ret, clos.ret)
	}
	if ref.out != clos.out {
		t.Errorf("%s: output ref=%q closure=%q", label, ref.out, clos.out)
	}
	if !eqInt64s(ref.branches, clos.branches) {
		t.Errorf("%s: branch streams differ (%d vs %d events)",
			label, len(ref.branches)/2, len(clos.branches)/2)
	}
	if !eqInt64s(ref.profs, clos.profs) {
		t.Errorf("%s: prof streams differ", label)
	}
	if !slices.EqualFunc(ref.counts, clos.counts, slices.Equal) {
		t.Errorf("%s: arm table counts ref=%v closure=%v", label, ref.counts, clos.counts)
	}
	// Stats are only exact on completed runs (trap-point charges are
	// block-granular on the closure engine).
	if ref.err == "" && ref.stats != clos.stats {
		t.Errorf("%s: stats\nref:     %+v\nclosure: %+v", label, ref.stats, clos.stats)
	}
}

// compareSame demands full identity — return value, output, error text
// (trap kind and PC included), hook streams, and Stats even at trap
// points. Two closure runs of one program share one execution contract
// down to the block-granular step budget, so unlike compareRuns nothing
// is forgiven.
func compareSame(t testing.TB, label string, a, b engineRun) {
	t.Helper()
	if a.err != b.err {
		t.Errorf("%s: errors differ: %q vs %q", label, a.err, b.err)
		return
	}
	if a.ret != b.ret {
		t.Errorf("%s: ret %d vs %d", label, a.ret, b.ret)
	}
	if a.out != b.out {
		t.Errorf("%s: output %q vs %q", label, a.out, b.out)
	}
	if a.stats != b.stats {
		t.Errorf("%s: stats\n%+v\n%+v", label, a.stats, b.stats)
	}
	if !eqInt64s(a.branches, b.branches) {
		t.Errorf("%s: branch streams differ (%d vs %d events)",
			label, len(a.branches)/2, len(b.branches)/2)
	}
	if !eqInt64s(a.profs, b.profs) {
		t.Errorf("%s: prof streams differ", label)
	}
	if !slices.EqualFunc(a.counts, b.counts, slices.Equal) {
		t.Errorf("%s: arm table counts %v vs %v", label, a.counts, b.counts)
	}
}

// TestRandomProgramEquivalence fuzzes the engines against each other
// with generated CFGs and adversarial inputs.
func TestRandomProgramEquivalence(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	completed, multiChunk, counted := 0, 0, 0
	for seed := 0; seed < n; seed++ {
		for _, input := range [][]byte{nil, workload.FuzzInput(uint64(seed)+1000, 200)} {
			ref, clos := runBoth(t, randprog.New(uint64(seed)), uint64(seed), input)
			compareRuns(t, labelFor(seed, input), ref, clos)
			if ref.err == "" {
				completed++
			}
			if len(clos.branches)/2 > interp.BranchChunk {
				multiChunk++
			}
			if slices.ContainsFunc(clos.counts, func(c []uint64) bool { return slices.ContainsFunc(c, func(n uint64) bool { return n > 0 }) }) {
				counted++
			}
		}
	}
	// The generator must keep producing runs that complete, or the
	// strong (stats-comparing) arm of the contract goes untested.
	if completed < n/5 {
		t.Errorf("only %d/%d runs completed; generator too trap-happy", completed, 2*n)
	}
	// It must also keep producing streams longer than one branch-log
	// chunk, or the closure engine's OnBranch delivery of full chunks
	// mid-run goes untested.
	if multiChunk < n/40 {
		t.Errorf("only %d/%d runs filled a branch-log chunk", multiChunk, 2*n)
	}
	// And Prof instructions must reach the arm tables, or their counts
	// go untested.
	if counted < n/5 {
		t.Errorf("only %d/%d runs counted into an arm table", counted, 2*n)
	}
}

func labelFor(seed int, input []byte) string {
	tag := "nil"
	if input != nil {
		tag = "fuzz"
	}
	return "seed=" + itoa(seed) + "/" + tag
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// addFuzzSeeds gives a fuzz target over (generator seed, input) the
// suite's seed corpus.
func addFuzzSeeds(f *testing.F) {
	f.Add(uint64(1), []byte("hello\n42 "))
	f.Add(uint64(77), []byte{0, 255, '\n'})
	f.Add(uint64(123456), []byte("a-b c.d 9/0"))
	// Seeds whose generated CFGs exercise dense straight-line blocks,
	// traps mid-block (division by zero, out-of-range Ld/St), and
	// branch back-edges.
	f.Add(uint64(7), []byte("0 0 0"))
	f.Add(uint64(42), []byte("9/0"))
	f.Add(uint64(2026), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(31337), []byte("-1 -1"))
}

// FuzzEngines explores program and input space beyond the fixed seeds.
func FuzzEngines(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		ref, clos := runBoth(t, randprog.New(seed), seed, input)
		compareRuns(t, "fuzz", ref, clos)
	})
}

// FuzzOptimize fuzzes the conventional optimizer on generated programs
// that verify: optimized, relinearized and delay-slot filled, a program
// must still verify, and an input the original completes on (within
// randMaxSteps, on the reference Machine) must give the same output and
// return value. Layout may add jumps, so the optimized run gets a larger
// step budget. A trapping original may lose its trap: dead-code
// elimination deletes dead loads and divisions.
func FuzzOptimize(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		p := randprog.New(seed)
		if p.Verify() != nil {
			return
		}
		q := ir.CloneProgram(p)
		opt.Program(q)
		q.Linearize()
		q.FillDelaySlots()
		if err := q.Verify(); err != nil {
			t.Fatalf("seed %d: optimized program does not verify: %v\n%s", seed, err, q.Dump())
		}
		want := runOn(t, p, input, interp.EngineReference, false, 0)
		if want.err != "" {
			return
		}
		m := &interp.Machine{Prog: q, Input: input, MaxSteps: 4 * randMaxSteps}
		ret, err := m.Run()
		if err != nil || ret != want.ret || m.Output.String() != want.out {
			t.Fatalf("seed %d: optimized run: ret %d, output %q, error %v; original ret %d, output %q",
				seed, ret, m.Output.String(), err, want.ret, want.out)
		}
	})
}
