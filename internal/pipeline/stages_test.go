package pipeline

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

// stages composes the three build stages on one source and training
// input, reusing each frontend and training product across the
// configurations it builds, as the experiment engine's stage memos do.
type stages struct {
	src    string
	train  []byte
	fronts map[FrontendOptions]*FrontendProduct
	trains map[Options]*TrainProduct // keyed by the options but Transform
}

func newStages(src string, train []byte) *stages {
	return &stages{src: src, train: train, fronts: map[FrontendOptions]*FrontendProduct{}, trains: map[Options]*TrainProduct{}}
}

func (s *stages) build(o Options) (*BuildResult, error) {
	front := s.fronts[o.Frontend()]
	if front == nil {
		var err error
		if front, err = BuildFrontend(s.src, o.Frontend()); err != nil {
			return nil, err
		}
		s.fronts[o.Frontend()] = front
	}
	key := o
	key.Transform = core.TransformOptions{}
	tp := s.trains[key]
	if tp == nil {
		var err error
		if tp, err = TrainStage(front, s.train, o.Detection()); err != nil {
			return nil, err
		}
		s.trains[key] = tp
	}
	return FinalizeStages(front, tp, o)
}

// buildPair builds one configuration both ways — monolithic Build and
// through the stages — and fails unless the outputs are byte-identical.
func buildPair(t *testing.T, st *stages, o Options) *BuildResult {
	t.Helper()
	mono, err := Build(st.src, st.train, o)
	if err != nil {
		t.Fatalf("monolithic Build: %v", err)
	}
	staged, err := st.build(o)
	if err != nil {
		t.Fatalf("staged Build: %v", err)
	}
	if got, want := staged.Baseline.Dump(), mono.Baseline.Dump(); got != want {
		t.Fatalf("staged baseline differs from monolithic baseline\nstaged:\n%s\nmonolithic:\n%s", got, want)
	}
	if got, want := staged.Reordered.Dump(), mono.Reordered.Dump(); got != want {
		t.Fatalf("staged reordered program differs from monolithic\nstaged:\n%s\nmonolithic:\n%s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", staged.Results), fmt.Sprintf("%+v", mono.Results); got != want {
		t.Fatalf("staged results differ: %s vs %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", staged.OrResults), fmt.Sprintf("%+v", mono.OrResults); got != want {
		t.Fatalf("staged or-results differ: %s vs %s", got, want)
	}
	return staged
}

// The staged pipeline must be byte-identical to the monolithic one over
// the whole evaluation roster. Each workload runs under a rotating
// heuristic set so all three sets are exercised without tripling the
// build count.
func TestStagedBuildMatchesMonolithicRoster(t *testing.T) {
	sets := []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
	for i, w := range workload.All() {
		w, set := w, sets[i%len(sets)]
		t.Run(fmt.Sprintf("%s/set%v", w.Name, set), func(t *testing.T) {
			t.Parallel()
			buildPair(t, newStages(w.Source, w.Train()), Options{Switch: set, Optimize: true})
		})
	}
}

// Randomized TransformOptions (and the Section 10 extension) must stay
// byte-identical too — every variant shares the earlier variants'
// frontend and training products, which is exactly where divergence
// would creep in.
func TestStagedBuildMatchesMonolithicRandomOptions(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	rng := rand.New(rand.NewSource(7))
	st := newStages(w.Source, w.Train())
	for i := 0; i < 12; i++ {
		o := Options{
			Switch:          []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}[rng.Intn(3)],
			Optimize:        true,
			CommonSuccessor: rng.Intn(2) == 0,
			Transform: core.TransformOptions{
				NoBoundOrder: rng.Intn(2) == 0,
				NoCmpReuse:   rng.Intn(2) == 0,
				NoTailDup:    rng.Intn(2) == 0,
			},
		}
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) {
			buildPair(t, st, o)
		})
	}
}

// A training product from a diverging detection run must fail loudly in
// finalize, not silently misattribute counts.
func TestFinalizeStagesRejectsMismatchedProduct(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	o := Options{Switch: lower.SetI, Optimize: true}
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TrainStage(front, w.Train(), o.Detection())
	if err != nil {
		t.Fatal(err)
	}
	bad := *tp
	bad.NumSeqs++
	if _, err := FinalizeStages(front, &bad, o); err == nil {
		t.Fatal("finalize accepted a product with the wrong sequence count")
	}
}

// A zero global costs the frontend and a clone of its program no
// storage: with a 2^20-word buffer (8 MB as an image) they allocate under
// a megabyte between them. Nothing here runs the program.
func TestFrontendAndCloneSkipZeroGlobal(t *testing.T) {
	const src = `int buf[1048576];
int main() { buf[getchar()] = 1; return buf[7]; }`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	front, err := BuildFrontend(src, FrontendOptions{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	clone := ir.CloneProgram(front.Prog)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("BuildFrontend and CloneProgram allocated %d bytes, want under 1 MB", n)
	}
	if g := clone.Global("buf"); g.Size != 1<<20 || len(g.Init) != 0 {
		t.Errorf("cloned buf has %d words and an Init of %d, want 2^20 and none", g.Size, len(g.Init))
	}
}
