package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"branchreorder/internal/interp"
	"branchreorder/internal/machine"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// outcome is what a program run returns to its user.
type outcome struct {
	output string
	ret    int64
}

// reference runs src on input with the reference interpreter on the
// unoptimized frontend: a path that shares no code with opt, core,
// superinstruction fusion or the fast engine.
func reference(src string, input []byte) (outcome, error) {
	res, err := pipeline.Frontend(src, pipeline.Options{})
	if err != nil {
		return outcome{}, err
	}
	m := &interp.Machine{Prog: res.Prog, Input: input}
	ret, err := m.Run()
	if err != nil {
		return outcome{}, err
	}
	return outcome{m.Output.String(), ret}, nil
}

func (o outcome) matches(name string, ms ...*sim.Measurement) error {
	for _, m := range ms {
		if m.Output != o.output || m.Ret != o.ret {
			return fmt.Errorf("%s: output or return value differs from the reference interpreter", name)
		}
	}
	return nil
}

// checker verifies a run's products after the timed loop.
type checker struct {
	seed       uint64
	goldenPath string // results.txt, whose suite section seed 0 must reproduce
	refs       map[string]outcome
}

// matches checks measurements of w on its test input against the
// reference, which it computes once per workload.
func (c *checker) matches(w workload.Workload, ms ...*sim.Measurement) error {
	want, ok := c.refs[w.Name]
	if !ok {
		var err error
		if want, err = reference(w.Source, w.Test()); err != nil {
			return fmt.Errorf("%s: reference: %w", w.Name, err)
		}
		c.refs[w.Name] = want
	}
	return want.matches(w.Name, ms...)
}

// golden checks, at seed 0, that the rendered suite byte-matches its
// section of results.txt.
func (c *checker) golden(text string) error {
	if c.seed != 0 {
		return nil
	}
	want, err := os.ReadFile(c.goldenPath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(want), text) {
		return errors.New("seed-0 tables and figures differ from " + c.goldenPath)
	}
	return nil
}

// quality sums, over a workload's programs, what the reordered
// executables cost next to their baselines: index 0 is the baseline,
// 1 the reordered build.
type quality struct {
	insts, cycles, mispredicts [2]uint64
	static                     [2]int64
}

func (q *quality) add(base, reord *sim.Measurement, staticBase, staticReord int64) {
	for i, m := range []*sim.Measurement{base, reord} {
		q.insts[i] += m.Stats.Insts
		q.cycles[i] += m.Cycles[machine.UltraI.Name]
		q.mispredicts[i] += m.Mispredicts[machine.UltraI.PredictorName]
	}
	q.static[0] += staticBase
	q.static[1] += staticReord
}
