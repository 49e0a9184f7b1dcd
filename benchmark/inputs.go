package main

import (
	"bytes"
	"hash/fnv"
	"strconv"

	"branchreorder/internal/workload"
)

// longCopies is how many shuffled copies of a test input make up a
// measure-long input.
const longCopies = 8

// splitmix64 advances *state and returns the next value of its stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffleLines permutes the lines of data with a splitmix64 stream keyed
// by (seed, key); seed 0 returns data unchanged. A shuffle keeps the
// input's byte distribution, and shuffling training and test inputs
// separately keeps the drift between them. Every roster input ends in a
// newline, so each line carries its own.
func shuffleLines(data []byte, seed uint64, key string) []byte {
	if seed == 0 {
		return data
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	state := seed ^ h.Sum64()
	for i := len(lines) - 1; i > 0; i-- {
		j := int(splitmix64(&state) % uint64(i+1))
		lines[i], lines[j] = lines[j], lines[i]
	}
	return bytes.Join(lines, nil)
}

// roster returns the 17 workloads with inputs generated for seed. The
// inputs are made once, here; the program under test sees only them.
func roster(seed uint64) []workload.Workload {
	ws := workload.All()
	for i, w := range ws {
		ws[i].Train = fixed(shuffleLines(w.Train(), seed, w.Name+"/train"))
		ws[i].Test = fixed(shuffleLines(w.Test(), seed, w.Name+"/test"))
	}
	return ws
}

func fixed(b []byte) func() []byte { return func() []byte { return b } }

// longInput concatenates longCopies independently shuffled copies of w's
// test input.
func longInput(w workload.Workload, seed uint64) []byte {
	var b bytes.Buffer
	for k := 0; k < longCopies; k++ {
		b.Write(shuffleLines(w.Test(), seed, w.Name+"/long"+strconv.Itoa(k)))
	}
	return b.Bytes()
}
