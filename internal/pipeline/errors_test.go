package pipeline

import (
	"strings"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
)

func TestFrontendErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"parse", "int main( {", "parse"},
		{"check", "int main() { return nope; }", "check"},
		{"no main", "int helper() { return 1; }", "no main"},
		{"huge array", "int a[4611686018427387904]; int main() { return 0; }", "check: 1:1: global a takes the data memory past its bound"},
		{"arrays too big together", "int a[16777216]; int b[1]; int main() { return 0; }", "check: 1:18: global b takes the data memory past its bound"},
	}
	for _, c := range cases {
		_, err := Frontend(c.src, Options{Switch: lower.SetI, Optimize: true})
		if err == nil {
			t.Errorf("%s: Frontend succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestBuildPropagatesTrainingErrors(t *testing.T) {
	// The training run divides by zero.
	src := `int main() { int z = getchar(); return 5 / (z - z); }`
	_, err := Build(src, []byte("x"), Options{Switch: lower.SetI, Optimize: true})
	if err == nil || !strings.Contains(err.Error(), "training run") {
		t.Errorf("training trap not reported: %v", err)
	}
}

// TestCallDepthBound runs Mini-C recursion against interp.MaxCallDepth:
// recursion without end traps on both engines with one error, and so
// fails the build's training run, while a recursion whose deepest call
// reaches the bound exactly completes.
func TestCallDepthBound(t *testing.T) {
	o := Options{Switch: lower.SetI, Optimize: true}
	const endless = `
int down(int n) { return down(n + 1) + 1; }
int main() { return down(0); }`
	const want = "runtime error in down: exceeded call depth 16384"
	if _, err := Build(endless, nil, o); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Build: error %v, want %q", err, want)
	}
	front, err := Frontend(endless, o)
	if err != nil {
		t.Fatal(err)
	}
	// Trap-point Stats: the reference counts each executed instruction,
	// the closure engine charges a block's Insts at its terminator.
	for e, stats := range map[interp.Engine]interp.Stats{
		interp.EngineReference: {Insts: 32769, Calls: 16385},
		interp.EngineClosure:   {Insts: 1, Calls: 16385},
	} {
		_, st, _, err := interp.Exec(e, front.Prog, nil, nil, nil, nil)
		if err == nil || err.Error() != want {
			t.Errorf("%v: error %v, want %q", e, err, want)
		}
		if st != stats {
			t.Errorf("%v: trap-point stats\ngot:  %+v\nwant: %+v", e, st, stats)
		}
	}

	// depth(n) is active n+1 times at its deepest, so depth(16383)
	// reaches the bound, one call short of a trap, and depth(16384)
	// traps. main reads n as two base-128 digits.
	const deep = `
int depth(int n) { if (n == 0) return 0; return depth(n - 1) + 1; }
int main() { putint(depth(getchar() * 128 + getchar())); return 0; }`
	front, err = Frontend(deep, o)
	if err != nil {
		t.Fatal(err)
	}
	atBound, past := []byte{127, 127}, []byte{128, 0}
	for _, e := range []interp.Engine{interp.EngineReference, interp.EngineClosure} {
		_, _, out, err := interp.Exec(e, front.Prog, nil, atBound, nil, nil)
		if err != nil || string(out) != "16383" {
			t.Errorf("%v: depth at the bound: output %q, error %v", e, out, err)
		}
		if _, _, _, err := interp.Exec(e, front.Prog, nil, past, nil, nil); err == nil || err.Error() != "runtime error in depth: exceeded call depth 16384" {
			t.Errorf("%v: depth one past the bound: error %v", e, err)
		}
	}
	r, err := Build(deep, atBound, o)
	if err != nil {
		t.Fatalf("Build at the bound: %v", err)
	}
	if _, out, _ := runProg(t, r.Reordered, string(atBound)); out != "16383" {
		t.Errorf("reordered program at the bound: output %q", out)
	}
}

func TestBuildWithoutOptimization(t *testing.T) {
	// The pipeline must work (if less effectively) without conventional
	// optimizations.
	src := `
int n = 0;
int main() {
	int c;
	while ((c = getchar()) != EOF) {
		if (c == 'a') n = n + 1;
		else if (c == 'b') n = n + 2;
		else n = n + 3;
	}
	putint(n);
	return n;
}`
	r, err := Build(src, []byte("ccccabcc"), Options{Switch: lower.SetI, Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	_, out0, _ := runProg(t, r.Baseline, "abcabc")
	_, out1, _ := runProg(t, r.Reordered, "abcabc")
	if out0 != out1 {
		t.Errorf("unoptimized build broke semantics: %q vs %q", out0, out1)
	}
}

func TestStaticInstsComponents(t *testing.T) {
	src := `
int main() {
	int c = getchar();
	switch (c) {
	case 1: return 10;
	case 2: return 20;
	case 3: return 30;
	case 4: return 40;
	}
	return 0;
}`
	front, err := Frontend(src, Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	withTable := StaticInsts(front.Prog, 3)
	// A bigger indirect-jump cost must increase the static count when a
	// jump table is present (Set I emits one for this switch).
	if biggest := StaticInsts(front.Prog, 10); biggest <= withTable {
		t.Errorf("IJmp cost not reflected: %d vs %d", withTable, biggest)
	}
	frontLinear, err := Frontend(src, Options{Switch: lower.SetIII, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if StaticInsts(frontLinear.Prog, 3) == withTable {
		t.Error("linear and indirect translations have identical static size; suspicious")
	}
}
