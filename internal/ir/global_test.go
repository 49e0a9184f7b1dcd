package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

// imageForms lists, for each of three 8-word images, Inits that hold
// it: the whole image, and prefixes that drop some or all of its
// trailing zeros, down to nil where every word is zero.
var imageForms = []struct {
	image []int64
	forms [][]int64
}{
	{[]int64{3, 1, 4, 0, 0, 0, 0, 0}, [][]int64{{3, 1, 4, 0, 0, 0, 0, 0}, {3, 1, 4, 0}, {3, 1, 4}}},
	{[]int64{3, 1, 4, 0, 0, 0, 0, 9}, [][]int64{{3, 1, 4, 0, 0, 0, 0, 9}}},
	{make([]int64, 8), [][]int64{make([]int64, 8), {0}, {}, nil}},
}

// printGlobal prints each of g's eight words and a space.
const printGlobal = `int g[8];
int main() { int i; for (i = 0; i < 8; i++) { putint(g[i]); putchar(' '); } return 0; }`

// Digest reads a global's zero-extended image: every form of an image
// digests alike, and different images differ.
func TestGlobalImageDigest(t *testing.T) {
	front, err := pipeline.BuildFrontend(printGlobal, pipeline.FrontendOptions{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]int{} // digest → image index
	for i, im := range imageForms {
		for _, form := range im.forms {
			p := ir.CloneProgram(front.Prog)
			p.Global("g").Init = form
			d := p.Digest()
			if j, ok := seen[d]; ok && j != i {
				t.Errorf("image %v and image %v digest alike", im.image, imageForms[j].image)
			}
			seen[d] = i
		}
	}
	if len(seen) != len(imageForms) {
		t.Errorf("%d images gave %d digests", len(imageForms), len(seen))
	}
}

// Both engines load the image, whichever form holds it.
func TestEnginesLoadGlobalImage(t *testing.T) {
	front, err := pipeline.BuildFrontend(printGlobal, pipeline.FrontendOptions{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range imageForms {
		var want strings.Builder
		for _, w := range im.image {
			fmt.Fprintf(&want, "%d ", w)
		}
		for _, form := range im.forms {
			p := ir.CloneProgram(front.Prog)
			p.Global("g").Init = form
			for _, e := range []interp.Engine{interp.EngineClosure, interp.EngineReference} {
				_, _, out, err := interp.Exec(e, p, nil, nil, nil, nil)
				if err != nil {
					t.Fatalf("Init %v on %v: %v", form, e, err)
				}
				if string(out) != want.String() {
					t.Errorf("Init %v on %v printed %q, want %q", form, e, out, want.String())
				}
			}
		}
	}
}
