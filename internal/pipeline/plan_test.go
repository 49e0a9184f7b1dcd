package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

var allSets = []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}

// planned is one lowering of a checked program and the plan it was
// lowered under.
type planned struct {
	set   lower.HeuristicSet
	plan  lower.SwitchPlan
	front *FrontendProduct
}

// lowerUnderEverySet checks src once and lowers the checked program
// under Sets I-III, requiring each product to equal the one BuildFrontend
// makes from the source, and each plan to name every switch the product
// counts.
func lowerUnderEverySet(t *testing.T, src string) []planned {
	t.Helper()
	info, err := Check(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []planned
	for _, set := range allSets {
		fo := FrontendOptions{Switch: set, Optimize: true}
		front, err := LowerChecked(info, fo)
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		fresh, err := BuildFrontend(src, fo)
		if err != nil {
			t.Fatalf("set %v: %v", set, err)
		}
		if front.Digest != fresh.Digest {
			t.Errorf("set %v: lowering a shared checked program differs from BuildFrontend", set)
		}
		plan := lower.Plan(info, set)
		census := map[lower.SwitchKind]int{}
		for _, k := range []lower.SwitchKind{lower.SwitchLinear, lower.SwitchBinary, lower.SwitchIndirect} {
			if n := strings.Count(string(plan), k.String()[:1]); n > 0 {
				census[k] = n
			}
		}
		if !reflect.DeepEqual(census, front.SwitchKinds) {
			t.Errorf("set %v: plan %q, but the program's switches are %v", set, plan, front.SwitchKinds)
		}
		out = append(out, planned{set, plan, front})
	}
	return out
}

// samePlanSameProduct requires two lowerings of one source to be equal,
// digest and switch census, exactly when their plans are.
func samePlanSameProduct(t *testing.T, ps []planned) {
	t.Helper()
	for i, a := range ps {
		for _, b := range ps[i+1:] {
			same := a.front.Digest == b.front.Digest && reflect.DeepEqual(a.front.SwitchKinds, b.front.SwitchKinds)
			if (a.plan == b.plan) != same {
				t.Errorf("sets %v and %v: plans %q and %q, equal products %v", a.set, b.set, a.plan, b.plan, same)
			}
		}
	}
}

// The frontend memo shares a program's lowering between heuristic sets
// whose plans are equal. Over the roster that must give byte-identical
// products, and distinct plans distinct programs: 19 of each.
func TestEqualPlansLowerIdenticallyRoster(t *testing.T) {
	plans, digests := map[string]bool{}, map[[32]byte]bool{}
	for _, w := range workload.All() {
		ps := lowerUnderEverySet(t, w.Source)
		samePlanSameProduct(t, ps)
		for _, p := range ps {
			plans[w.Name+"/"+string(p.plan)] = true
			digests[p.front.Digest] = true
		}
	}
	if len(plans) != 19 || len(digests) != 19 {
		t.Errorf("%d distinct plans and %d distinct programs, want 19 and 19", len(plans), len(digests))
	}
}

// switchSource returns a program with one switch of n cases that span m
// values: 0 .. n-2 and m-1.
func switchSource(n int, m int64) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tint c;\n\twhile ((c = getchar()) != EOF) {\n\t\tswitch (c) {\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "\t\tcase %d: putchar(%d); break;\n", i, 'a'+i%26)
	}
	fmt.Fprintf(&b, "\t\tcase %d: putchar(90); break;\n\t\tdefault: putchar(46);\n\t\t}\n\t}\n\treturn 0;\n}\n", m-1)
	return b.String()
}

// At every Table 2 threshold, on both sides of the density test, sets
// share a lowering exactly when their plans are equal.
func TestEqualPlansLowerIdenticallyAtThresholds(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8, 15, 16, 17} {
		for _, m := range []int64{int64(3 * n), int64(3*n + 1)} {
			t.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(t *testing.T) {
				ps := lowerUnderEverySet(t, switchSource(n, m))
				samePlanSameProduct(t, ps)
				for _, p := range ps {
					want := lower.ChooseSwitchKind(p.set, n, m).String()[:1]
					if string(p.plan) != want {
						t.Errorf("set %v: plan %q, want %q", p.set, p.plan, want)
					}
				}
			})
		}
	}
}
