package lower

import (
	"runtime"
	"testing"

	"branchreorder/internal/cminus"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
)

// compile builds a program from source, verifying it along the way.
func compile(t *testing.T, src string, opts Options) *ir.Program {
	t.Helper()
	file, err := cminus.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := cminus.Check(file)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := Program(info, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	res.Prog.Linearize()
	if err := res.Prog.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, res.Prog.Dump())
	}
	return res.Prog
}

func run(t *testing.T, prog *ir.Program, input string) (int64, string, interp.Stats) {
	t.Helper()
	m := &interp.Machine{Prog: prog, Input: []byte(input)}
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, prog.Dump())
	}
	return ret, m.Output.String(), m.Stats
}

func TestArithmeticAndLocals(t *testing.T) {
	prog := compile(t, `
int main() {
	int a = 7, b = 3;
	int c;
	c = a * b + 10;
	c += a % b;
	c -= -b;
	return c << 1;
}`, Options{})
	ret, _, _ := run(t, prog, "")
	want := int64(((7*3 + 10 + 7%3) + 3) << 1)
	if ret != want {
		t.Errorf("got %d, want %d", ret, want)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	prog := compile(t, `
int counts[10];
int total = 5;
int main() {
	int i;
	for (i = 0; i < 10; i++)
		counts[i] = i * i;
	total += counts[3] + counts[9];
	return total;
}`, Options{})
	ret, _, _ := run(t, prog, "")
	if want := int64(5 + 9 + 81); ret != want {
		t.Errorf("got %d, want %d", ret, want)
	}
}

func TestStringGlobalAndIO(t *testing.T) {
	prog := compile(t, `
int msg[6] = "hi\n";
int main() {
	int i = 0;
	while (msg[i] != 0) {
		putchar(msg[i]);
		i++;
	}
	putint(42);
	putchar('\n');
	return 0;
}`, Options{})
	_, out, _ := run(t, prog, "")
	if out != "hi\n42\n" {
		t.Errorf("output %q, want %q", out, "hi\n42\n")
	}
}

func TestGetcharLoop(t *testing.T) {
	// The paper's Figure 1 example: classify characters.
	prog := compile(t, `
int blanks = 0, newlines = 0, others = 0;
int main() {
	int c;
	while ((c = getchar()) != EOF) {
		if (c == ' ')
			blanks++;
		else if (c == '\n')
			newlines++;
		else
			others++;
	}
	putint(blanks); putchar(' ');
	putint(newlines); putchar(' ');
	putint(others); putchar('\n');
	return 0;
}`, Options{})
	_, out, _ := run(t, prog, "ab c\nd ef\n")
	if out != "2 2 6\n" {
		t.Errorf("output %q, want %q", out, "2 2 6\n")
	}
}

func TestShortCircuit(t *testing.T) {
	prog := compile(t, `
int calls = 0;
int bump() { calls++; return 1; }
int main() {
	int x = 0;
	if (x != 0 && bump()) { return 100; }
	if (x == 0 || bump()) { x = 1; }
	return calls * 10 + x;
}`, Options{})
	ret, _, _ := run(t, prog, "")
	if ret != 1 {
		t.Errorf("got %d, want 1 (short-circuit should skip both bump() calls)", ret)
	}
}

func TestTernaryAndIncDec(t *testing.T) {
	prog := compile(t, `
int main() {
	int a = 5;
	int b = a++ + 1;   // b = 6, a = 6
	int c = ++a;       // c = 7, a = 7
	int d = a > b ? a - b : b - a; // 1
	return b * 100 + c * 10 + d;
}`, Options{})
	ret, _, _ := run(t, prog, "")
	if ret != 671 {
		t.Errorf("got %d, want 671", ret)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	prog := compile(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`, Options{})
	ret, _, _ := run(t, prog, "")
	if ret != 144 {
		t.Errorf("got %d, want 144", ret)
	}
}

func TestDoWhileAndContinueBreak(t *testing.T) {
	prog := compile(t, `
int main() {
	int i = 0, sum = 0;
	do {
		i++;
		if (i % 2 == 0) continue;
		if (i > 9) break;
		sum += i;
	} while (i < 100);
	return sum; // 1+3+5+7+9
}`, Options{})
	ret, _, _ := run(t, prog, "")
	if ret != 25 {
		t.Errorf("got %d, want 25", ret)
	}
}

const switchSrc = `
int main() {
	int c, total = 0;
	while ((c = getchar()) != EOF) {
		switch (c) {
		case 'a': total += 1; break;
		case 'b': total += 2; break;
		case 'c': total += 3;        // falls through
		case 'd': total += 4; break;
		case 'e': total += 5; break;
		case 'x': total += 10; break;
		case 'y': total += 20; break;
		case 'z': total += 30; break;
		default: total += 100; break;
		}
	}
	return total;
}`

func switchWant() int64 {
	// Input "abcdezq": a=1 b=2 c=3+4 d=4 e=5 z=30 q=100
	return 1 + 2 + 7 + 4 + 5 + 30 + 100
}

func TestSwitchAllHeuristics(t *testing.T) {
	for _, h := range []HeuristicSet{SetI, SetII, SetIII} {
		prog := compile(t, switchSrc, Options{Switch: h})
		ret, _, _ := run(t, prog, "abcdezq")
		if ret != switchWant() {
			t.Errorf("set %v: got %d, want %d", h, ret, switchWant())
		}
	}
}

func TestSwitchKindSelection(t *testing.T) {
	tests := []struct {
		h    HeuristicSet
		n    int
		m    int64
		want SwitchKind
	}{
		{SetI, 4, 12, SwitchIndirect},
		{SetI, 4, 13, SwitchLinear},
		{SetI, 8, 100, SwitchBinary},
		{SetI, 3, 3, SwitchLinear},
		{SetII, 15, 15, SwitchBinary},
		{SetII, 16, 48, SwitchIndirect},
		{SetII, 16, 49, SwitchBinary},
		{SetII, 7, 7, SwitchLinear},
		{SetIII, 50, 50, SwitchLinear},
	}
	for _, tt := range tests {
		if got := ChooseSwitchKind(tt.h, tt.n, tt.m); got != tt.want {
			t.Errorf("ChooseSwitchKind(%v, %d, %d) = %v, want %v", tt.h, tt.n, tt.m, got, tt.want)
		}
	}
}

// A switch whose cases span more than 2^63 values is sparse under every
// set. hi-lo+1 wraps negative for it, and a wrapped span would pass Set
// I's density test and size a jump table of negative length.
func TestSwitchSpanBeyondInt64(t *testing.T) {
	for _, src := range []string{`
int main() {
	int x;
	x = getchar();
	switch (x) {
	case 0: putchar(65); break;
	case 1: putchar(66); break;
	case 2: putchar(67); break;
	case 9223372036854775807: putchar(68); break;
	}
	return 0;
}`, `
int main() {
	switch (getchar()) {
	case -9223372036854775807 - 1: putchar(68); break;
	case 0: putchar(65); break;
	case 1: putchar(66); break;
	case 2: putchar(67); break;
	case 9223372036854775807: putchar(68); break;
	}
	return 0;
}`} {
		for _, h := range []HeuristicSet{SetI, SetII, SetIII} {
			prog := compile(t, src, Options{Switch: h})
			for in, want := range map[string]string{"\x00": "A", "\x01": "B", "\x02": "C", "\x03": ""} {
				if _, out, _ := run(t, prog, in); out != want {
					t.Errorf("set %v, input %q: output %q, want %q", h, in, out, want)
				}
			}
		}
	}
}

func TestSwitchKindsRecorded(t *testing.T) {
	file, err := cminus.Parse(switchSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cminus.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Program(info, Options{Switch: SetIII})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchKinds[SwitchLinear] != 1 {
		t.Errorf("SwitchKinds = %v, want one linear", res.SwitchKinds)
	}
}

func TestDynamicCountsSane(t *testing.T) {
	prog := compile(t, `
int main() {
	int i, s = 0;
	for (i = 0; i < 100; i++) s += i;
	return s;
}`, Options{})
	ret, _, stats := run(t, prog, "")
	if ret != 4950 {
		t.Fatalf("got %d, want 4950", ret)
	}
	if stats.CondBranches < 100 || stats.CondBranches > 110 {
		t.Errorf("CondBranches = %d, want ~101", stats.CondBranches)
	}
	if stats.Insts == 0 || stats.Insts < stats.CondBranches {
		t.Errorf("Insts = %d implausible vs branches %d", stats.Insts, stats.CondBranches)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	prog := compile(t, `int main() { int z = 0; return 5 / z; }`, Options{})
	m := &interp.Machine{Prog: prog}
	if _, err := m.Run(); err == nil {
		t.Error("want division-by-zero error, got nil")
	}
}

func TestCompoundAssignOnArray(t *testing.T) {
	prog := compile(t, `
int a[4] = {1, 2, 3, 4};
int main() {
	int i = 2;
	a[i] *= 10;
	a[i+1] += a[i];
	a[0]++;
	return a[0]*1000 + a[2]*10 + a[3];
}`, Options{})
	ret, _, _ := run(t, prog, "")
	if want := int64(2*1000 + 30*10 + 34); ret != want {
		t.Errorf("got %d, want %d", ret, want)
	}
}

// A global keeps its initializer up to the last nonzero word, and the
// engines read every later word as zero.
func TestGlobalsKeepInitializedPrefix(t *testing.T) {
	prog := compile(t, `
int zero;
int one = 1;
int scalarZero = 0;
int buf[1000];
int msg[8] = "ok";
int tab[6] = {0, 2, 0, 3, 0, 0};
int main() {
	putint(one + zero + scalarZero + buf[999] + msg[2] + msg[7] + tab[5]);
	putchar(msg[0]); putchar(msg[1]);
	return tab[1] * 10 + tab[3];
}`, Options{})
	want := map[string][]int64{
		"zero": nil, "one": {1}, "scalarZero": nil, "buf": nil,
		"msg": {'o', 'k'}, "tab": {0, 2, 0, 3},
	}
	for _, g := range prog.Globals {
		if len(g.Init) != len(want[g.Name]) {
			t.Errorf("%s: Init %v, want %v", g.Name, g.Init, want[g.Name])
			continue
		}
		for i, v := range want[g.Name] {
			if g.Init[i] != v {
				t.Errorf("%s: Init %v, want %v", g.Name, g.Init, want[g.Name])
				break
			}
		}
	}
	if ret, out, _ := run(t, prog, ""); ret != 23 || out != "1ok" {
		t.Errorf("run returned %d and printed %q, want 23 and \"1ok\"", ret, out)
	}
}

// Lowering allocates no storage for a global's zero words: the program
// at the data-memory bound, 2^24 words in all, lowers in well under a
// megabyte where a full image of a would take 128 MB. It is never run.
func TestLowerAtMemoryBoundAllocatesNoImage(t *testing.T) {
	file, err := cminus.Parse(`int a[16777215]; int b; int main() { return b; }`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cminus.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Program(info, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("lowering allocated %d bytes, want under 1 MB", n)
	}
	if p := res.Prog; p.MemSize != 1<<24 || p.Global("a").Init != nil || p.Global("b").Addr != 1<<24-1 {
		t.Errorf("MemSize %d, a's Init %d words, b at %d; want 2^24, none, 2^24-1",
			p.MemSize, len(p.Global("a").Init), p.Global("b").Addr)
	}
}
