// Package workload provides the 17 benchmark programs of the paper's
// Table 3. The original evaluation compiled the real Unix utilities; we
// cannot, so each workload is a Mini-C program reproducing the branch
// structure of its namesake's inner loop (character classification,
// comparison chains, dispatch switches), paired with deterministic input
// generators. Training and test inputs use different seeds and slightly
// different distributions, mirroring the paper's train/test split (which
// is what made hyphen regress there).
package workload

import "sync"

// Workload is one benchmark program.
type Workload struct {
	Name   string
	Desc   string // the paper's Table 3 description
	Source string // Mini-C source
	// Train and Test return the inputs. For the roster's workloads each
	// input is generated on first use and shared by every later caller:
	// treat it as read-only.
	Train func() []byte
	Test  func() []byte
}

// All returns the workloads in the paper's (alphabetical) order. Each
// call generates the inputs afresh, once, on first use, so they live only
// as long as the returned workloads.
func All() []Workload {
	ws := []Workload{
		awkWorkload(),
		cbWorkload(),
		cppWorkload(),
		ctagsWorkload(),
		deroffWorkload(),
		grepWorkload(),
		hyphenWorkload(),
		joinWorkload(),
		lexWorkload(),
		nroffWorkload(),
		prWorkload(),
		ptxWorkload(),
		sdiffWorkload(),
		sedWorkload(),
		sortWorkload(),
		wcWorkload(),
		yaccWorkload(),
	}
	for i := range ws {
		ws[i].Train, ws[i].Test = once(ws[i].Train), once(ws[i].Test)
	}
	return ws
}

// once returns gen memoized. The result's capacity is cut to its
// length, so a caller's append copies instead of writing into the
// shared array.
func once(gen func() []byte) func() []byte {
	get := sync.OnceValue(gen)
	return func() []byte {
		b := get()
		return b[:len(b):len(b)]
	}
}

// Named returns the workload with the given name, or false.
func Named(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// lcg is a small deterministic generator so inputs are reproducible
// without touching math/rand's global state.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// pick returns a random byte of s.
func (l *lcg) pick(s string) byte { return s[l.intn(len(s))] }

// word appends a lowercase word of length 1..maxLen.
func (l *lcg) word(dst []byte, maxLen int) []byte {
	n := 1 + l.intn(maxLen)
	for i := 0; i < n; i++ {
		dst = append(dst, byte('a'+l.intn(26)))
	}
	return dst
}

// textInput generates prose-like text: words separated by blanks, with
// punctuation, digits, and newlines. hyphenRate permille of words carry a
// hyphen (for the hyphen workload's sensitivity to input distribution).
func textInput(seed uint64, nWords, hyphenRate int) []byte {
	g := newLCG(seed)
	var out []byte
	col := 0
	for w := 0; w < nWords; w++ {
		start := len(out)
		out = g.word(out, 9)
		if g.intn(1000) < hyphenRate {
			out = append(out, '-')
			out = g.word(out, 5)
		}
		if g.intn(12) == 0 {
			out = append(out, g.pick(".,;:!?"))
		}
		if g.intn(20) == 0 {
			out = append(out, ' ')
			for i := 0; i < 1+g.intn(4); i++ {
				out = append(out, byte('0'+g.intn(10)))
			}
		}
		col += len(out) - start + 1
		if col > 60 {
			out = append(out, '\n')
			col = 0
		} else if g.intn(30) == 0 {
			out = append(out, '\t')
		} else {
			out = append(out, ' ')
		}
	}
	out = append(out, '\n')
	return out
}

// cSourceInput generates C-like source text: declarations, braces,
// comments, preprocessor lines, operators — what cb, cpp, ctags and lex
// chew on.
func cSourceInput(seed uint64, nLines int) []byte {
	g := newLCG(seed)
	var out []byte
	kw := []string{"int", "char", "if", "else", "while", "for", "return", "break", "static"}
	directives := []string{"#include <x.h>", "#define N 10", "#ifdef X", "#endif", "#undef N", "#else"}
	depth := 0
	for i := 0; i < nLines; i++ {
		switch g.intn(10) {
		case 0:
			out = append(out, directives[g.intn(len(directives))]...)
		case 1:
			out = append(out, "/* "...)
			out = g.word(out, 8)
			out = append(out, ' ')
			out = g.word(out, 8)
			out = append(out, " */"...)
		case 2:
			if depth < 6 {
				for t := 0; t < depth; t++ {
					out = append(out, '\t')
				}
				out = append(out, kw[g.intn(len(kw))]...)
				out = append(out, ' ')
				out = g.word(out, 7)
				out = append(out, "() {"...)
				depth++
			}
		case 3:
			if depth > 0 {
				depth--
				for t := 0; t < depth; t++ {
					out = append(out, '\t')
				}
				out = append(out, '}')
			}
		default:
			for t := 0; t < depth; t++ {
				out = append(out, '\t')
			}
			out = append(out, kw[g.intn(len(kw))]...)
			out = append(out, ' ')
			out = g.word(out, 7)
			switch g.intn(4) {
			case 0:
				out = append(out, " = "...)
				for d := 0; d < 1+g.intn(4); d++ {
					out = append(out, byte('0'+g.intn(10)))
				}
			case 1:
				out = append(out, " += 2"...)
			case 2:
				out = append(out, '(')
				out = g.word(out, 5)
				out = append(out, ')')
			}
			out = append(out, ';')
		}
		out = append(out, '\n')
	}
	return out
}

// numericLines generates lines of small integers (for join, sort, awk).
func numericLines(seed uint64, nLines, maxFields, maxVal int) []byte {
	g := newLCG(seed)
	var out []byte
	for i := 0; i < nLines; i++ {
		nf := 1 + g.intn(maxFields)
		for f := 0; f < nf; f++ {
			if f > 0 {
				out = append(out, ' ')
			}
			v := g.intn(maxVal)
			if v == 0 {
				out = append(out, '0')
			}
			var digits []byte
			for v > 0 {
				digits = append(digits, byte('0'+v%10))
				v /= 10
			}
			for d := len(digits) - 1; d >= 0; d-- {
				out = append(out, digits[d])
			}
		}
		out = append(out, '\n')
	}
	return out
}

// roffInput generates nroff/deroff-style input: text lines mixed with
// dot-command lines and backslash escapes.
func roffInput(seed uint64, nLines int) []byte {
	g := newLCG(seed)
	cmds := []string{".pp", ".br", ".sp", ".ti", ".ft B", ".ce", ".fi", ".nf"}
	var out []byte
	for i := 0; i < nLines; i++ {
		if g.intn(5) == 0 {
			out = append(out, cmds[g.intn(len(cmds))]...)
		} else {
			for w := 0; w < 4+g.intn(8); w++ {
				if w > 0 {
					out = append(out, ' ')
				}
				if g.intn(15) == 0 {
					out = append(out, '\\')
					out = append(out, g.pick("fbiu*"))
				}
				out = g.word(out, 8)
			}
		}
		out = append(out, '\n')
	}
	return out
}
