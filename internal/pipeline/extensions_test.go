package pipeline

import (
	"math/rand"
	"strings"
	"testing"

	"branchreorder/internal/lower"
)

// The Section 10 extension: || / && chains over different variables are
// reordered by joint-outcome profile.
const orChainSrc = `
int hits = 0, misses = 0;
int main() {
	int a, b;
	while (1) {
		a = getchar();
		if (a == EOF)
			break;
		b = getchar();
		if (b == EOF)
			break;
		if (a == '!' || b == '?' || a > 'm') // last condition is hottest
			hits = hits + 1;
		else
			misses = misses + 1;
	}
	putint(hits); putchar(' '); putint(misses); putchar('\n');
	return 0;
}`

func orInput(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		switch {
		case r < 2:
			out = append(out, '!')
		case r < 4:
			out = append(out, 'a', '?')
			i++
			continue
		case r < 70:
			out = append(out, byte('n'+rng.Intn(12))) // a > 'm'
		default:
			out = append(out, byte('a'+rng.Intn(10)))
		}
		out = append(out, byte('a'+rng.Intn(4)))
		i++
	}
	return out
}

func TestCommonSuccessorExtension(t *testing.T) {
	train := orInput(1, 3000)
	test := orInput(2, 5000)
	opts := Options{Switch: lower.SetI, Optimize: true, CommonSuccessor: true}
	r, err := Build(orChainSrc, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OrSequences) == 0 {
		t.Fatalf("no common-successor sequences detected\n%s", r.Baseline.Dump())
	}
	applied := 0
	for _, res := range r.OrResults {
		if res.Applied {
			applied++
			if res.NewCost >= res.OrigCost {
				t.Errorf("applied without cost win: %+v", res)
			}
		}
	}
	if applied == 0 {
		t.Fatalf("no or-sequence reordered: %+v", r.OrResults)
	}
	ret0, out0, s0 := runProg(t, r.Baseline, string(test))
	ret1, out1, s1 := runProg(t, r.Reordered, string(test))
	if ret0 != ret1 || out0 != out1 {
		t.Fatalf("semantics changed: %q -> %q", out0, out1)
	}
	if s1.CondBranches >= s0.CondBranches {
		t.Errorf("no dynamic branch win: %d -> %d", s0.CondBranches, s1.CondBranches)
	}
	t.Logf("common-successor extension: insts %d -> %d, branches %d -> %d",
		s0.Insts, s1.Insts, s0.CondBranches, s1.CondBranches)
}

func TestCommonSuccessorOffByDefault(t *testing.T) {
	r, err := Build(orChainSrc, orInput(3, 500), Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OrSequences) != 0 || len(r.OrResults) != 0 {
		t.Error("extension ran without being requested")
	}
}

// Random || / && chain programs: the extension must never change
// behaviour.
func TestCommonSuccessorRandomSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops := []string{"==", "!=", "<", ">", "<=", ">="}
	for trial := 0; trial < 30; trial++ {
		var conds []string
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			v := "a"
			if rng.Intn(2) == 0 {
				v = "b"
			}
			conds = append(conds, v+" "+ops[rng.Intn(len(ops))]+" '"+
				string(rune('a'+rng.Intn(20)))+"'")
		}
		join := " || "
		if rng.Intn(2) == 0 {
			join = " && "
		}
		src := `
int n = 0;
int main() {
	int a, b;
	while (1) {
		a = getchar();
		if (a == EOF) break;
		b = getchar();
		if (b == EOF) break;
		if (` + strings.Join(conds, join) + `)
			n = n + 7;
		else
			n = n - 1;
	}
	putint(n);
	return n;
}`
		train := orInput(int64(100+trial), 800)
		test := orInput(int64(200+trial), 1200)
		r, err := Build(src, train, Options{Switch: lower.SetIII, Optimize: true, CommonSuccessor: true})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		ret0, out0, _ := runProg(t, r.Baseline, string(test))
		ret1, out1, _ := runProg(t, r.Reordered, string(test))
		if ret0 != ret1 || out0 != out1 {
			t.Fatalf("trial %d: semantics changed\nsrc:\n%s\nout %q -> %q\nreordered:\n%s",
				trial, src, out0, out1, r.Reordered.Dump())
		}
	}
}
