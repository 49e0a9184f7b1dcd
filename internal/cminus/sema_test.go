package cminus

import (
	"strings"
	"testing"
)

func checkOK(t *testing.T, src string) *Info {
	t.Helper()
	f := parseOK(t, src)
	info, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v\nsource:\n%s", err, src)
	}
	return info
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed before Check: %v", err)
	}
	_, err = Check(f)
	if err == nil {
		t.Fatalf("Check succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("error %q does not mention %q", err, wantSub)
	}
}

func TestCheckResolvesSymbols(t *testing.T) {
	info := checkOK(t, `
int g = 1;
int arr[4];
int add(int a, int b) { return a + b; }
int main() {
	int x = g;
	arr[0] = add(x, g);
	return arr[0];
}`)
	mainFn := info.File.Funcs[1]
	if info.NumLocals[mainFn] != 1 {
		t.Errorf("main has %d locals, want 1", info.NumLocals[mainFn])
	}
	addFn := info.File.Funcs[0]
	if got := info.ParamSlot[addFn]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("add param slots = %v", got)
	}
}

func TestCheckScoping(t *testing.T) {
	info := checkOK(t, `
int main() {
	int x = 1;
	{
		int x = 2;  // shadows
		x = x + 1;
	}
	return x;
}`)
	fn := info.File.Funcs[0]
	if info.NumLocals[fn] != 2 {
		t.Errorf("got %d locals, want 2 (outer and shadowing x)", info.NumLocals[fn])
	}
}

func TestCheckLoopVariablesPerScope(t *testing.T) {
	checkOK(t, `
int main() {
	int i;
	for (i = 0; i < 3; i++) { int t = i; t = t; }
	while (i > 0) { int t = 1; i -= t; }
	return i;
}`)
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`int main() { return x; }`, "undefined identifier"},
		{`int main() { return f(); }`, "undefined function"},
		{`int f(int a) { return a; } int main() { return f(); }`, "argument"},
		{`int main() { return getchar(1); }`, "argument"},
		{`int main() { putchar(); return 0; }`, "argument"},
		{`int a[3]; int main() { return a; }`, "without an index"},
		{`int g; int main() { return g[0]; }`, "not an array"},
		{`int main() { return q[0]; }`, "undefined array"},
		{`int main() { break; }`, "break outside"},
		{`int main() { continue; }`, "continue outside"},
		{`int main() { switch (1) { case 1: continue; } return 0; }`, "continue outside"},
		{`int x; int x; int main() { return 0; }`, "duplicate global"},
		{`int f() { return 0; } int f() { return 1; } int main() { return 0; }`, "duplicate function"},
		{`int getchar() { return 0; } int main() { return 0; }`, "builtin"},
		{`int g; int g() { return 0; } int main() { return 0; }`, "collides"},
		{`int f(int a, int a) { return a; } int main() { return 0; }`, "duplicate parameter"},
		{`int main() { int a, a; return 0; }`, "duplicate declaration"},
		{`int main() { switch (1) { case 1: break; case 1: break; } return 0; }`, "duplicate case"},
		{`int main() { switch (1) { default: break; default: break; } return 0; }`, "duplicate default"},
		{`int EOF; int main() { return 0; }`, "EOF"},
		{`int main() { int EOF; return 0; }`, "EOF"},
		{`int a[4611686018427387904]; int main() { return 0; }`, "global a takes the data memory past its bound of 16777216 words"},
		{`int a[16777216]; int b[1]; int main() { return 0; }`, "global b takes the data memory past its bound of 16777216 words"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

// Globals that fill the data memory exactly are accepted. Check only:
// lowering would allocate all 2^24 words.
func TestCheckDataMemoryBoundInclusive(t *testing.T) {
	checkOK(t, `int a[16777215]; int b; int main() { return 0; }`)
}

func TestCheckBreakInsideSwitchOK(t *testing.T) {
	checkOK(t, `int main() { switch (1) { case 1: break; } return 0; }`)
}

func TestCheckCallTargets(t *testing.T) {
	info := checkOK(t, `
int twice(int x) { return x + x; }
int main() { return twice(getchar()); }`)
	var sawBuiltin, sawUser bool
	for _, tgt := range info.Calls {
		switch {
		case tgt.Builtin == BuiltinGetChar:
			sawBuiltin = true
		case tgt.Func != nil && tgt.Func.Name == "twice":
			sawUser = true
		}
	}
	if !sawBuiltin || !sawUser {
		t.Errorf("call resolution incomplete: builtin=%v user=%v", sawBuiltin, sawUser)
	}
}
