package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/profile"
	"branchreorder/internal/workload"
)

// profEvent is one OnProf call.
type profEvent struct {
	seqID, sub int
	v          int64
}

// recordProf runs prog on the reference Machine and returns its OnProf
// stream.
func recordProf(t *testing.T, prog *ir.Program, input []byte) []profEvent {
	t.Helper()
	var events []profEvent
	m := &interp.Machine{Prog: prog, Input: input, OnProf: func(seqID, sub int, v int64) {
		events = append(events, profEvent{seqID, sub, v})
	}}
	if _, err := m.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return events
}

// hookProfile is the training run the arm tables replaced: it feeds
// events to core.Profile's and core.OrProfile's hooks behind the
// sampler's per-event decision, then scales.
func hookProfile(r *BuildResult, events []profEvent, pc profile.Config) (*core.Profile, *core.OrProfile) {
	prof, orProf := core.NewProfile(r.Sequences), core.NewOrProfile(r.OrSequences)
	s := profile.NewSampler(pc, prof, orProf)
	rangeHook, orHook := prof.Hook(), orProf.Hook()
	hook := s.Hook(func(seqID, sub int, v int64) {
		rangeHook(seqID, sub, v)
		orHook(seqID, sub, v)
	})
	for _, e := range events {
		hook(e.seqID, e.sub, e.v)
	}
	s.Scale()
	return prof, orProf
}

// checkTrainMatchesHook trains prog, as r's detect left it, on both
// engines under each config, and fails unless the counts equal those the
// hooks collect from the reference Machine's OnProf stream.
func checkTrainMatchesHook(t *testing.T, r *BuildResult, prog *ir.Program, input []byte, configs []profile.Config) {
	t.Helper()
	events := recordProf(t, prog, input)
	for _, pc := range configs {
		want, wantOr := hookProfile(r, events, pc)
		for _, e := range []interp.Engine{interp.EngineClosure, interp.EngineReference} {
			if err := r.train(prog, input, pc, e); err != nil {
				t.Fatalf("%v, %+v: %v", e, pc, err)
			}
			if !reflect.DeepEqual(r.Profile.Seqs, want.Seqs) {
				t.Errorf("%v, %+v: range counts differ from the hook's:\n got %s\nwant %s", e, pc, dumpSeqs(r.Profile.Seqs), dumpSeqs(want.Seqs))
			}
			if !reflect.DeepEqual(r.OrProfile.Seqs, wantOr.Seqs) {
				t.Errorf("%v, %+v: or-sequence counts differ from the hook's", e, pc)
			}
		}
	}
}

func dumpSeqs(seqs map[int]*core.SeqProfile) string {
	var sb strings.Builder
	for id := 0; id < len(seqs); id++ {
		if sp := seqs[id]; sp != nil {
			fmt.Fprintf(&sb, " %d:%v/%d", id, sp.Counts, sp.Total)
		}
	}
	return sb.String()
}

// The arm tables each engine fills hold the counts the profile hooks
// collect from the reference Machine's OnProf stream, exact and sampled,
// over the suite's 51 jobs. Jobs that lower identically share a program
// and training input, and are checked once. The common-successor
// extension runs through the same training run, so it is checked too.
func TestTrainTablesMatchHookRoster(t *testing.T) {
	configs := []profile.Config{
		{},
		{Mode: profile.EveryNth, Rate: 1, Seed: 11},
		{Mode: profile.EveryNth, Rate: 64, Seed: 12},
		{Mode: profile.EveryNth, Rate: 512, Seed: 13},
	}
	type key struct {
		name   string
		digest [32]byte
	}
	seen := map[key]bool{}
	for _, w := range workload.All() {
		for _, set := range []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII} {
			front, err := BuildFrontend(w.Source, FrontendOptions{Switch: set, Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			if seen[key{w.Name, front.Digest}] {
				continue
			}
			seen[key{w.Name, front.Digest}] = true
			for _, commonSucc := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/set%v/commonsucc=%v", w.Name, set, commonSucc), func(t *testing.T) {
					t.Parallel()
					var r BuildResult
					prog := ir.CloneProgram(front.Prog)
					if err := r.detect(prog, commonSucc); err != nil {
						t.Fatal(err)
					}
					checkTrainMatchesHook(t, &r, prog, w.Train(), configs)
				})
			}
		}
	}
}

// wideSrc tests x against values too far apart for a dense arm index:
// the window from its second arm bound (0) to its last (200001) spans
// 200,002 values.
const wideSrc = `
int zero = 0, mid = 0, high = 0, other = 0;
int main() {
	int c, x, neg;
	c = getchar();
	while (c != EOF) {
		neg = 0;
		x = 0;
		if (c == '-') {
			neg = 1;
			c = getchar();
		}
		while (c >= '0' && c <= '9') {
			x = x * 10 + c - '0';
			c = getchar();
		}
		if (neg)
			x = -x;
		if (x == 0)
			zero = zero + 1;
		else if (x == 100000)
			mid = mid + 1;
		else if (x == 200000)
			high = high + 1;
		else
			other = other + 1;
		c = getchar();
	}
	putint(zero); putchar(' '); putint(mid); putchar(' '); putint(high); putchar(' '); putint(other); putchar('\n');
	return 0;
}`

// A sequence whose window is too wide to index densely is searched, on
// values below, inside and above the window and negative ones, and its
// counts still match the hook's on both engines.
func TestTrainWideWindowMatchesHook(t *testing.T) {
	values := "-9223372036854775807 -300000 -1 0 1 5 99999 100000 100001 150000 199999 200000 200001 300000 9223372036854775807 "
	input := []byte(strings.Repeat(values+"0 0 100000 7 -5 ", 9))
	front, err := BuildFrontend(wideSrc, FrontendOptions{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var r BuildResult
	prog := ir.CloneProgram(front.Prog)
	if err := r.detect(prog, false); err != nil {
		t.Fatal(err)
	}
	wide := -1
	prof := core.NewProfile(r.Sequences)
	for _, s := range r.Sequences {
		if los, _ := prof.ArmsByLo(s.ID); len(los) > 1 && los[len(los)-1]-los[1]+1 > 4096 {
			wide = s.ID
		}
	}
	if wide < 0 {
		t.Fatalf("no sequence spans more than 4096 values:\n%s", prog.Dump())
	}
	checkTrainMatchesHook(t, &r, prog, input, []profile.Config{{}, {Mode: profile.EveryNth, Rate: 3, Seed: 1}})
	// The input reaches every arm, so a search that loses values shows.
	counts := r.Profile.Seqs[wide].Counts
	if slices.Contains(counts, 0) {
		t.Errorf("wide sequence left an arm uncounted: %v", counts)
	}
}
