package pipeline

import (
	"strings"
	"testing"

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
