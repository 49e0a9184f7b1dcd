package predictor

import (
	"testing"

	"branchreorder/internal/interp"
)

// lcg gives the tests a deterministic branch stream.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

// TestBankMatchesBimodals drives the Table-6 bank and the 14 individual
// Bimodal predictors with the same stream and demands bit-identical
// mispredict counts — the property that lets sim.Run swap the fan-out
// for a single Observe per branch.
func TestBankMatchesBimodals(t *testing.T) {
	specs := Table6Specs()
	bank := NewBank(specs)
	var ref []*Bimodal
	for _, s := range specs {
		ref = append(ref, NewBimodal(s.Bits, s.Entries))
	}
	g := &lcg{s: 7}
	for i := 0; i < 200000; i++ {
		// Mostly dense small IDs (linearization's shape), some huge,
		// some negative to exercise the modulo fallback.
		id := int(g.next() % 4096)
		switch g.next() % 16 {
		case 0:
			id = int(g.next())
		case 1:
			id = -id
		}
		taken := g.next()&3 != 0 // biased-taken, like loop branches
		bank.Observe(id, taken)
		for _, p := range ref {
			p.Observe(id, taken)
		}
	}
	if bank.Len() != len(ref) {
		t.Fatalf("bank has %d predictors, want %d", bank.Len(), len(ref))
	}
	byName := bank.Mispredicts()
	for i, p := range ref {
		if bank.Name(i) != p.Name() {
			t.Errorf("predictor %d named %q, want %q", i, bank.Name(i), p.Name())
		}
		if bank.MispredictsOf(i) != p.Mispredicts {
			t.Errorf("%s: bank %d mispredicts, bimodal %d",
				p.Name(), bank.MispredictsOf(i), p.Mispredicts)
		}
		if byName[p.Name()] != p.Mispredicts {
			t.Errorf("%s: map reports %d, want %d",
				p.Name(), byName[p.Name()], p.Mispredicts)
		}
		if bank.Branches != p.Branches {
			t.Errorf("%s: bank saw %d branches, bimodal %d",
				p.Name(), bank.Branches, p.Branches)
		}
	}
}

func TestBankReset(t *testing.T) {
	bank := NewTable6Bank()
	fresh := NewTable6Bank()
	g := &lcg{s: 99}
	for i := 0; i < 5000; i++ {
		bank.Observe(int(g.next()%512), g.next()&1 == 0)
	}
	bank.Reset()
	if bank.Branches != 0 {
		t.Errorf("Branches = %d after Reset", bank.Branches)
	}
	g2 := &lcg{s: 31}
	for i := 0; i < 5000; i++ {
		id, taken := int(g2.next()%512), g2.next()&1 == 0
		bank.Observe(id, taken)
		fresh.Observe(id, taken)
	}
	for i := 0; i < bank.Len(); i++ {
		if bank.MispredictsOf(i) != fresh.MispredictsOf(i) {
			t.Errorf("%s: reset bank %d mispredicts, fresh %d",
				bank.Name(i), bank.MispredictsOf(i), fresh.MispredictsOf(i))
		}
	}
}

func TestBankNonPowerOfTwo(t *testing.T) {
	bank := NewBank([]Spec{{Bits: 2, Entries: 100}})
	ref := NewBimodal(2, 100)
	g := &lcg{s: 5}
	for i := 0; i < 50000; i++ {
		id, taken := int(g.next()%1000), g.next()&1 == 0
		bank.Observe(id, taken)
		ref.Observe(id, taken)
	}
	if bank.MispredictsOf(0) != ref.Mispredicts {
		t.Errorf("bank %d mispredicts, bimodal %d", bank.MispredictsOf(0), ref.Mispredicts)
	}

	// IDs of 2^32 and above must reduce the full int, not its low 32
	// bits: 2^32+5 lands in entry 1 of a 100-entry table, not entry 5.
	if ^uint(0)>>32 == 0 {
		t.Skip("int is 32 bits")
	}
	var events []event
	for i := 0; i < 20000; i++ {
		id := int(g.next()%1000) + int(g.next()%4)<<32
		events = append(events, event{id, g.next()%5 != 0})
	}
	checkAgainstBimodals(t, []Spec{{Bits: 2, Entries: 100}, {Bits: 1, Entries: 100}, {Bits: 2, Entries: 64}}, events)
}

// event is one (branchID, taken) observation.
type event struct {
	id    int
	taken bool
}

// checkAgainstBimodals drives a bank and one Bimodal per spec with the
// same events and demands bit-identical counts, checking after every
// event so a wrong split is reported where it happened.
func checkAgainstBimodals(t *testing.T, specs []Spec, events []event) *Bank {
	t.Helper()
	bank := NewBank(specs)
	var ref []*Bimodal
	for _, s := range specs {
		ref = append(ref, NewBimodal(s.Bits, s.Entries))
	}
	for n, e := range events {
		bank.Observe(e.id, e.taken)
		for i, p := range ref {
			p.Observe(e.id, e.taken)
			if bank.MispredictsOf(i) != p.Mispredicts {
				t.Fatalf("after event %d (id %d): %s bank %d mispredicts, bimodal %d",
					n, e.id, p.Name(), bank.MispredictsOf(i), p.Mispredicts)
			}
		}
	}
	byName := bank.Mispredicts()
	for _, p := range ref {
		if byName[p.Name()] != p.Mispredicts {
			t.Errorf("%s: map reports %d, want %d", p.Name(), byName[p.Name()], p.Mispredicts)
		}
	}
	return bank
}

// growingStream draws n events whose highest ID grows from below 32 to
// just over limit partway through, so every Table-6 size is crossed
// while earlier IDs keep recurring.
func growingStream(seed uint64, n, limit int) []event {
	g := &lcg{s: seed}
	out := make([]event, n)
	for i := range out {
		hi := 24 + (limit+1-24)*i/n // the ID ceiling rises linearly
		out[i] = event{int(g.next() % uint64(hi)), g.next()%3 != 0}
	}
	return out
}

// TestBankSplitsAtEverySize crosses 32, 64, …, 2048 partway through one
// stream: each crossing splits a class while its members are live.
func TestBankSplitsAtEverySize(t *testing.T) {
	bank := checkAgainstBimodals(t, Table6Specs(), growingStream(3, 60000, 2100))
	if len(bank.active) != 14 {
		t.Errorf("%d tables simulated after IDs past 2048, want 14", len(bank.active))
	}
}

// TestBankSplitsLazily pins the point of the bank: IDs below 32 keep the
// whole Table-6 battery to one table per counter width, and a split
// touches only the classes the new ID reaches.
func TestBankSplitsLazily(t *testing.T) {
	bank := NewTable6Bank()
	for id := 0; id < 32; id++ {
		bank.Observe(id, id%3 == 0)
	}
	if len(bank.active) != 2 {
		t.Fatalf("%d tables simulated for IDs below 32, want 2", len(bank.active))
	}
	bank.Observe(100, true) // splits 32 and 64 off; 128..2048 stay one class
	if len(bank.active) != 6 {
		t.Errorf("%d tables simulated after ID 100, want 6", len(bank.active))
	}
	if bank.bound != 128 {
		t.Errorf("bound %d after ID 100, want 128", bank.bound)
	}
}

// TestBankLateNegativeID splits every class at once: a negative ID
// aliases to a different entry in every size.
func TestBankLateNegativeID(t *testing.T) {
	events := growingStream(11, 20000, 50)
	g := &lcg{s: 12}
	for i := 0; i < 20000; i++ {
		id := int(g.next() % 50)
		if i == 0 || g.next()%64 == 0 {
			id = -1 - int(g.next()%5000)
		}
		events = append(events, event{id, g.next()%4 != 0})
	}
	bank := checkAgainstBimodals(t, Table6Specs(), events)
	if len(bank.active) != 14 {
		t.Errorf("%d tables simulated after a negative ID, want 14", len(bank.active))
	}
}

// mixedSpecs mixes duplicate and non-power-of-two sizes with
// power-of-two ones in three widths, in no particular order.
var mixedSpecs = []Spec{
	{Bits: 2, Entries: 2048}, {Bits: 2, Entries: 100}, {Bits: 1, Entries: 64},
	{Bits: 2, Entries: 32}, {Bits: 2, Entries: 100}, {Bits: 3, Entries: 48},
	{Bits: 1, Entries: 64}, {Bits: 2, Entries: 2048}, {Bits: 1, Entries: 1},
	{Bits: 2, Entries: 1000}, {Bits: 1, Entries: 33}, {Bits: 3, Entries: 48},
}

func TestBankMixedSpecs(t *testing.T) {
	events := growingStream(21, 40000, 1100)
	events = append(events, event{-7, true}, event{5, false}, event{-7, true}, event{3000, true})
	checkAgainstBimodals(t, mixedSpecs, events)
}

// TestBankResetAfterSplit: Reset must collapse the classes again, so a
// fully split bank then counts like a fresh one, splits included.
func TestBankResetAfterSplit(t *testing.T) {
	bank := NewTable6Bank()
	for _, e := range growingStream(41, 10000, 3000) {
		bank.Observe(e.id, e.taken)
	}
	bank.Observe(-3, true)
	if len(bank.active) != 14 {
		t.Fatalf("%d tables simulated before Reset, want 14", len(bank.active))
	}
	bank.Reset()
	if len(bank.active) != 2 {
		t.Errorf("%d tables simulated after Reset, want 2", len(bank.active))
	}
	fresh := NewTable6Bank()
	for _, e := range growingStream(42, 10000, 700) {
		bank.Observe(e.id, e.taken)
		fresh.Observe(e.id, e.taken)
	}
	for i := 0; i < bank.Len(); i++ {
		if bank.MispredictsOf(i) != fresh.MispredictsOf(i) {
			t.Errorf("%s: reset bank %d mispredicts, fresh %d",
				bank.Name(i), bank.MispredictsOf(i), fresh.MispredictsOf(i))
		}
	}
}

// TestBankObserveAllocatesNothing covers the split path too: regroup
// works in the slices NewBank sized.
func TestBankObserveAllocatesNothing(t *testing.T) {
	bank := NewTable6Bank()
	id := 0
	allocs := testing.AllocsPerRun(100, func() {
		bank.Observe(id, id%2 == 0)
		id += 23
		if id > 3000 {
			bank.Reset()
			id = 0
		}
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f times per event", allocs)
	}
}

// encode packs the events Replay can carry — IDs in [0,
// interp.MaxBranchID] — with interp.BranchEvent, and drops the rest.
func encode(events []event) ([]event, []uint32) {
	var kept []event
	var enc []uint32
	for _, e := range events {
		if e.id < 0 || int64(e.id) > interp.MaxBranchID {
			continue
		}
		kept = append(kept, e)
		enc = append(enc, interp.BranchEvent(e.id, e.taken))
	}
	return kept, enc
}

// replayCut replays enc in consecutive chunks whose sizes cycle through
// sizes (zero-size chunks included), then the remainder in one chunk.
func replayCut(bank *Bank, enc []uint32, sizes []int) {
	total := 0
	for _, k := range sizes {
		total += k
	}
	for i := 0; total > 0 && len(enc) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(enc))
		bank.Replay(enc[:k])
		enc = enc[k:]
	}
	bank.Replay(enc)
}

// checkReplay feeds the representable events to a bank through Replay,
// cut into chunks of the given sizes, and to one Bimodal per spec, and
// demands bit-identical counts and Branches.
func checkReplay(t *testing.T, specs []Spec, events []event, sizes []int) *Bank {
	t.Helper()
	kept, enc := encode(events)
	bank := NewBank(specs)
	replayCut(bank, enc, sizes)
	for i, s := range specs {
		ref := NewBimodal(s.Bits, s.Entries)
		for _, e := range kept {
			ref.Observe(e.id, e.taken)
		}
		if bank.MispredictsOf(i) != ref.Mispredicts {
			t.Errorf("%s: replayed bank %d mispredicts, bimodal %d",
				ref.Name(), bank.MispredictsOf(i), ref.Mispredicts)
		}
		if bank.Branches != ref.Branches {
			t.Errorf("%s: replayed bank saw %d branches, bimodal %d",
				ref.Name(), bank.Branches, ref.Branches)
		}
	}
	return bank
}

// TestReplaySplitPositions puts the event that splits a class first, in
// the middle and last in its chunk: Replay must regroup at exactly that
// event, as Observe does.
func TestReplaySplitPositions(t *testing.T) {
	g := &lcg{s: 8}
	var below []event
	for i := 0; i < 300; i++ {
		below = append(below, event{int(g.next() % 32), g.next()%3 != 0})
	}
	for _, tc := range []struct {
		name string
		at   int // index of the splitting event within its chunk
	}{{"first", 0}, {"middle", 50}, {"last", 99}} {
		t.Run(tc.name, func(t *testing.T) {
			events := append([]event(nil), below[:200+tc.at]...)
			// ID 40 splits the 32-entry tables off; later IDs alias in
			// them, so a split one event early or late shows.
			events = append(events, event{40, true})
			events = append(events, below[200+tc.at:]...)
			for i := 0; i < 200; i++ {
				events = append(events, event{int(g.next() % 64), g.next()%2 == 0})
			}
			bank := checkReplay(t, Table6Specs(), events, []int{100})
			if len(bank.active) != 4 {
				t.Errorf("%d tables simulated after ID 40, want 4", len(bank.active))
			}
		})
	}
}

// TestReplayMatchesObserve replays long streams that cross every
// Table-6 size, and the mixed and non-power-of-two specs, in chunk
// sizes that straddle the splits differently.
func TestReplayMatchesObserve(t *testing.T) {
	for _, sizes := range [][]int{{4096}, {1}, {7, 0, 300, 13}} {
		checkReplay(t, Table6Specs(), growingStream(3, 60000, 2100), sizes)
		checkReplay(t, mixedSpecs, growingStream(21, 40000, 1100), sizes)
		checkReplay(t, []Spec{{Bits: 2, Entries: 100}, {Bits: 1, Entries: 100}, {Bits: 2, Entries: 64}},
			growingStream(5, 20000, 1000), sizes)
	}
}

// TestReplayEmptyChunk: an empty chunk changes neither counts nor state.
func TestReplayEmptyChunk(t *testing.T) {
	_, enc := encode(growingStream(9, 5000, 100))
	bank, fresh := NewTable6Bank(), NewTable6Bank()
	bank.Replay(nil)
	bank.Replay(enc[:0])
	if bank.Branches != 0 || bank.MispredictsOf(0) != 0 || len(bank.active) != 2 {
		t.Fatalf("empty chunks moved a fresh bank: %d branches, %d tables", bank.Branches, len(bank.active))
	}
	bank.Replay(enc[:2500])
	bank.Replay(enc[2500:2500])
	bank.Replay(enc[2500:])
	fresh.Replay(enc)
	for i := 0; i < bank.Len(); i++ {
		if bank.MispredictsOf(i) != fresh.MispredictsOf(i) {
			t.Errorf("%s: %d mispredicts with empty chunks, %d without",
				bank.Name(i), bank.MispredictsOf(i), fresh.MispredictsOf(i))
		}
	}
	if bank.Branches != fresh.Branches {
		t.Errorf("%d branches with empty chunks, %d without", bank.Branches, fresh.Branches)
	}
}

// TestReplayAfterReset: a split bank, Reset, replays like a fresh one.
func TestReplayAfterReset(t *testing.T) {
	_, first := encode(growingStream(41, 10000, 3000))
	_, second := encode(growingStream(42, 10000, 700))
	bank, fresh := NewTable6Bank(), NewTable6Bank()
	bank.Replay(first)
	if len(bank.active) != 14 {
		t.Fatalf("%d tables simulated before Reset, want 14", len(bank.active))
	}
	bank.Reset()
	bank.Replay(second)
	fresh.Replay(second)
	for i := 0; i < bank.Len(); i++ {
		if bank.MispredictsOf(i) != fresh.MispredictsOf(i) {
			t.Errorf("%s: reset bank %d mispredicts, fresh %d",
				bank.Name(i), bank.MispredictsOf(i), fresh.MispredictsOf(i))
		}
	}
	if bank.Branches != fresh.Branches {
		t.Errorf("reset bank saw %d branches, fresh %d", bank.Branches, fresh.Branches)
	}
}

// TestReplayAllocatesNothing replays a chunk that splits every class.
func TestReplayAllocatesNothing(t *testing.T) {
	_, enc := encode(growingStream(43, 4096, 3000))
	bank := NewTable6Bank()
	allocs := testing.AllocsPerRun(50, func() {
		bank.Reset()
		bank.Replay(enc)
	})
	if len(bank.active) != 14 {
		t.Errorf("%d tables simulated after the chunk, want 14", len(bank.active))
	}
	if allocs != 0 {
		t.Errorf("Replay allocates %.1f times per chunk", allocs)
	}
}

// FuzzBank decodes the input into (id, taken) events and demands that a
// bank built from mixed specs count bit-identically to the Bimodal
// fan-out. Each event takes three bytes: two for the ID (a high bit of
// the first makes it negative, another scales it past every table) and
// one whose low bit is the outcome. The representable events are then
// replayed through Replay in chunks whose sizes are the input's bytes
// modulo 8.
func FuzzBank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 1, 0, 5, 0, 0, 5, 1, 0, 31, 1})                     // IDs below 32
	f.Add([]byte{0, 10, 1, 0, 40, 1, 0, 10, 0, 0, 200, 1, 0, 10, 1})       // crosses 32, then 128
	f.Add([]byte{0, 3, 1, 0, 3, 1, 0x80, 3, 0, 0, 3, 1})                   // late negative ID
	f.Add([]byte{0x40, 1, 1, 0, 1, 0, 0x07, 0xff, 1, 0, 1, 1})             // past 2048, then small
	f.Add([]byte{0, 99, 1, 0, 100, 1, 0, 101, 0, 0, 99, 0, 0x03, 0xe8, 1}) // non-power-of-two edges
	specs := append(Table6Specs(),
		Spec{Bits: 2, Entries: 100}, Spec{Bits: 2, Entries: 100},
		Spec{Bits: 1, Entries: 1000}, Spec{Bits: 3, Entries: 48}, Spec{Bits: 2, Entries: 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		sizes := make([]int, len(data))
		for i, c := range data {
			sizes[i] = int(c % 8)
		}
		var events []event
		for ; len(data) >= 3; data = data[3:] {
			id := int(data[0]&0x3f)<<8 | int(data[1])
			if data[0]&0x40 != 0 {
				id <<= 20
			}
			if data[0]&0x80 != 0 {
				id = -id - 1
			}
			events = append(events, event{id, data[2]&1 != 0})
		}
		checkAgainstBimodals(t, specs, events)
		checkReplay(t, specs, events, sizes)
	})
}

func TestTable6SpecsShape(t *testing.T) {
	specs := Table6Specs()
	if len(specs) != 14 {
		t.Fatalf("%d specs, want 14", len(specs))
	}
	bank := NewBank(specs)
	if bank.Name(0) != "(0,1)x32" || bank.Name(13) != "(0,2)x2048" {
		t.Errorf("unexpected endpoints %q, %q", bank.Name(0), bank.Name(13))
	}
}
