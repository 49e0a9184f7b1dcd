package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readDocs reads -json result files, one document per line.
func readDocs(paths []string) ([]document, error) {
	var docs []document
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var d document
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			docs = append(docs, d)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return docs, nil
}

// compareFiles compares the result files before "--" (A, the parent)
// with those after it (B, the change). For every workload and metric it
// prints each side's median and quartiles, the change of B's median as a
// share of A's (positive is worse), and a verdict against the metric's
// bound in BENCHMARK.json: worse, better, within, or unresolved when a
// side's spread exceeds the bound. It exits nonzero when any metric is
// worse or any B run failed.
func compareFiles(args []string, specPath string, stdout, stderr io.Writer) int {
	var a, b []string
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "usage: benchmark -compare A.jsonl... -- B.jsonl...")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	da, err := readDocs(a)
	if err == nil {
		var db []document
		db, err = readDocs(b)
		if err == nil {
			return compareDocs(da, db, spec, stdout)
		}
	}
	fmt.Fprintln(stderr, err)
	return 1
}

type sample struct {
	seed uint64
	v    float64
}

func compareDocs(da, db []document, spec benchSpec, w io.Writer) int {
	code := 0
	for _, d := range db {
		if !d.Result.Correct {
			fmt.Fprintf(w, "B run failed: %s seed %d (%d of %d ops failed)\n", d.Workload, d.Seed, d.Result.Failed, d.Result.Attempted)
			code = 1
		}
	}
	names := map[string]bool{}
	for _, d := range append(append([]document(nil), da...), db...) {
		names[d.Workload] = true
	}
	var wls []string
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)
	values := func(docs []document, wl, metric string) []sample {
		var out []sample
		for _, d := range docs {
			if m, ok := d.Result.Metrics[metric]; ok && d.Workload == wl {
				out = append(out, sample{d.Seed, m.Value})
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-28s %28s %28s %9s  %s\n", "workload / metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range wls {
		fmt.Fprintln(w, wl)
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			sa, sb := values(da, wl, m.Name), values(db, wl, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			qa, qb := quartiles(sa), quartiles(sb)
			v, change := verdict(sa, sb, qa, qb, m)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "  %-26s %11.5g [%6.4g, %6.4g] %11.5g [%6.4g, %6.4g] %+8.2f%%  %s\n",
				m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*change, v)
		}
	}
	return code
}

// verdict judges B against A. change is B's median move as a share of
// A's, positive when worse. B is better only when it wins at least nine
// tenths of the seed-paired runs and its median moved by more than A's
// spread.
func verdict(a, b []sample, qa, qb [3]float64, m metricSpec) (string, float64) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if qa[1] == 0 {
		return "n/a", 0
	}
	change := sign * (qb[1] - qa[1]) / math.Abs(qa[1])
	if m.Bound == nil {
		return "-", change
	}
	spreadA := (qa[2] - qa[0]) / math.Abs(qa[1])
	spreadB := (qb[2] - qb[0]) / math.Abs(qa[1])
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*y.v >= sign*x.v {
				allBetter = false
			}
		}
	}
	wins, pairs := 0, 0
	for _, x := range a {
		for _, y := range b {
			if x.seed == y.seed {
				pairs++
				if sign*y.v < sign*x.v {
					wins++
				}
			}
		}
	}
	bound := *m.Bound
	switch {
	case spreadA > bound || spreadB > bound:
		if allBetter {
			return "better", change
		}
		return "unresolved", change
	case change > bound:
		return "worse", change
	case pairs > 0 && wins*10 >= pairs*9 && -change > spreadA:
		return "better", change
	}
	return "within", change
}

// quartiles returns the three quartiles as Python's
// statistics.quantiles(values, n=4) computes them.
func quartiles(xs []sample) [3]float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x.v
	}
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
