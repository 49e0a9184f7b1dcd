package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Profile serialization: the paper's Figure 2 runs two separate
// compilation passes with the profile data stored in between. The format
// is a line-oriented text file, one sequence per line:
//
//	seq <id> total <n> counts <c0> <c1> ... <ck>
//	orseq <id> total <n> combos <c0> <c1> ... <c2^n-1>
//
// Counts are parallel to the sequence's arms (respectively outcome
// masks), which both compilation passes recompute identically from the
// same source: the detector is deterministic, so arm order is stable.

// Write serializes the profile.
func (p *Profile) Write(w io.Writer) error {
	ids := make([]int, 0, len(p.Seqs))
	for id := range p.Seqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	bw := bufio.NewWriter(w)
	for _, id := range ids {
		sp := p.Seqs[id]
		fmt.Fprintf(bw, "seq %d total %d counts", id, sp.Total)
		for _, c := range sp.Counts {
			fmt.Fprintf(bw, " %d", c)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Write serializes the or-sequence profile.
func (p *OrProfile) Write(w io.Writer) error {
	ids := make([]int, 0, len(p.Seqs))
	for id := range p.Seqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	bw := bufio.NewWriter(w)
	for _, id := range ids {
		sp := p.Seqs[id]
		fmt.Fprintf(bw, "orseq %d total %d combos", id, sp.Total)
		for _, c := range sp.Combos {
			fmt.Fprintf(bw, " %d", c)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadProfiles parses a profile file, returning range-sequence and
// or-sequence counts keyed by sequence ID. An ID may appear once per
// record kind.
func ReadProfiles(r io.Reader) (map[int]*SeqProfile, map[int]*OrSeqProfile, error) {
	seqs := map[int]*SeqProfile{}
	orseqs := map[int]*OrSeqProfile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 || fields[2] != "total" {
			return nil, nil, fmt.Errorf("profile line %d: malformed: %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("profile line %d: bad id: %w", lineNo, err)
		}
		total, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("profile line %d: bad total: %w", lineNo, err)
		}
		counts := make([]uint64, 0, len(fields)-5)
		var sum uint64
		for _, f := range fields[5:] {
			c, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("profile line %d: bad count %q: %w", lineNo, f, err)
			}
			if sum+c < sum {
				return nil, nil, fmt.Errorf("profile line %d: counts sum past 2^64", lineNo)
			}
			counts = append(counts, c)
			sum += c
		}
		if sum != total {
			return nil, nil, fmt.Errorf("profile line %d: counts sum %d != total %d", lineNo, sum, total)
		}
		switch fields[0] {
		case "seq":
			if fields[4] != "counts" {
				return nil, nil, fmt.Errorf("profile line %d: expected 'counts'", lineNo)
			}
			if seqs[id] != nil {
				return nil, nil, fmt.Errorf("profile line %d: repeated seq %d", lineNo, id)
			}
			seqs[id] = &SeqProfile{Counts: counts, Total: total}
		case "orseq":
			if fields[4] != "combos" {
				return nil, nil, fmt.Errorf("profile line %d: expected 'combos'", lineNo)
			}
			n := 0
			for 1<<n < len(counts) {
				n++
			}
			if 1<<n != len(counts) {
				return nil, nil, fmt.Errorf("profile line %d: combo count %d is not a power of two", lineNo, len(counts))
			}
			if orseqs[id] != nil {
				return nil, nil, fmt.Errorf("profile line %d: repeated orseq %d", lineNo, id)
			}
			orseqs[id] = &OrSeqProfile{N: n, Combos: counts, Total: total}
		default:
			return nil, nil, fmt.Errorf("profile line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return seqs, orseqs, nil
}
