// Command brcc is the Mini-C compiler driver: it compiles a source file
// (or a named built-in workload), optionally applies profile-guided
// branch reordering, and can dump the IR, list the detected sequences, or
// run the result on an input file.
//
// Usage:
//
//	brcc [flags] file.mc
//	brcc [flags] -workload sort
//
// Typical sessions:
//
//	brcc -dump prog.mc                     # show optimized IR
//	brcc -seqs prog.mc                     # show reorderable sequences
//	brcc -train train.txt -run in.txt prog.mc
//	                                       # reorder using train.txt, then
//	                                       # execute on in.txt with stats
//	brcc -workload wc -train-builtin -run-builtin -compare
//	                                       # measure baseline vs reordered
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

// cmdLine is brcc's parsed command line.
type cmdLine struct {
	setName, trainFile, profileOut, profileIn, runFile, workload, engine string
	optimize, dump, seqs, commonSucc, trainBuiltin, runBuiltin, compare  bool

	files []string // the arguments after the flags
}

// parseFlags parses brcc's command line; a bad flag exits 2 with the
// usage.
func parseFlags(args []string) *cmdLine {
	c := &cmdLine{}
	fs := flag.NewFlagSet("brcc", flag.ExitOnError)
	fs.StringVar(&c.setName, "set", "I", "switch heuristic set: I, II, or III (paper Table 2)")
	fs.BoolVar(&c.optimize, "O", true, "apply conventional optimizations")
	fs.BoolVar(&c.dump, "dump", false, "print the program's IR")
	fs.BoolVar(&c.seqs, "seqs", false, "list detected reorderable sequences")
	fs.StringVar(&c.trainFile, "train", "", "training input file; enables branch reordering")
	fs.StringVar(&c.profileOut, "profile-out", "", "first pass: train and write the profile data file (Figure 2)")
	fs.StringVar(&c.profileIn, "profile-in", "", "second pass: reorder using a stored profile data file")
	fs.BoolVar(&c.commonSucc, "common-succ", false, "also reorder common-successor branch sequences (Section 10 extension)")
	fs.StringVar(&c.runFile, "run", "", "execute the program on this input file")
	fs.StringVar(&c.workload, "workload", "", "compile a built-in workload instead of a file")
	fs.BoolVar(&c.trainBuiltin, "train-builtin", false, "use the workload's built-in training input")
	fs.BoolVar(&c.runBuiltin, "run-builtin", false, "execute on the workload's built-in test input")
	fs.BoolVar(&c.compare, "compare", false, "run both baseline and reordered and report both")
	fs.StringVar(&c.engine, "engine", "closure", "execution backend for training and -run: closure or reference — results are byte-identical, only speed changes")
	fs.Parse(args)
	c.files = fs.Args()
	return c
}

// check rejects a flag that the selected mode would ignore: the first
// pass (-profile-out) trains, writes the profile and stops; the second
// pass (-profile-in) takes its counts from the file instead of a
// training run; -compare runs a build on an input; and -common-succ
// changes only what a build detects and reorders.
func (c *cmdLine) check() error {
	train, run := c.trainFile != "" || c.trainBuiltin, c.runFile != "" || c.runBuiltin
	switch {
	case c.profileOut != "" && (c.profileIn != "" || run || c.dump || c.seqs || c.compare):
		return errors.New("-profile-out only trains and writes the profile; it cannot take -profile-in, -run, -run-builtin, -dump, -seqs or -compare")
	case c.profileIn != "" && train:
		return errors.New("-profile-in reorders by the stored profile; it cannot take -train or -train-builtin")
	case c.compare && (!run || !train && c.profileIn == ""):
		return errors.New("-compare needs a build (-train, -train-builtin or -profile-in) and an input (-run or -run-builtin)")
	case c.commonSucc && !train && c.profileIn == "":
		return errors.New("-common-succ only changes a reordering build: it needs -train, -train-builtin or -profile-in")
	}
	return nil
}

func main() {
	c := parseFlags(os.Args[1:])
	check(c.check())

	set, err := parseSet(c.setName)
	check(err)

	eng, err := interp.ParseEngine(c.engine)
	check(err)
	execEngine = eng

	src, train, test, err := loadInputs(c.workload, c.files, c.trainFile, c.runFile, c.trainBuiltin, c.runBuiltin)
	check(err)

	opts := pipeline.Options{Switch: set, Optimize: c.optimize, CommonSuccessor: c.commonSucc}

	// Explicit two-pass workflow with the profile stored in a file.
	if c.profileOut != "" {
		check(runFirstPass(src, opts, train, c.profileOut))
		return
	}
	if c.profileIn != "" {
		build, err := runSecondPass(src, opts, c.profileIn)
		check(err)
		report(build, c.seqs, c.dump, test, c.compare)
		return
	}

	if train == nil {
		// Single-pass compile only.
		front, err := pipeline.Frontend(src, opts)
		check(err)
		if c.seqs {
			listSequences(front.Prog)
		}
		if c.dump {
			fmt.Print(front.Prog.Dump())
		}
		if test != nil {
			execute("program", front.Prog, test)
		}
		return
	}

	build, err := pipeline.BuildWith(src, train, opts, eng)
	check(err)
	report(build, c.seqs, c.dump, test, c.compare)
}

// execEngine is the -engine selection, consulted by every program
// execution and training run. Results are engine-independent.
var execEngine interp.Engine

// report prints the requested views of a finished build and runs it.
func report(build *pipeline.BuildResult, seqs, dump bool, test []byte, compare bool) {
	if seqs {
		for i, s := range build.Sequences {
			fmt.Printf("%v  [%v]\n", s, build.Results[i].Reason)
		}
		for i, s := range build.OrSequences {
			fmt.Printf("%v  [%v]\n", s, build.OrResults[i].Reason)
		}
		fmt.Printf("%d sequences detected, %d reordered\n",
			build.TotalSeqs()+len(build.OrSequences),
			build.ReorderedSeqs()+appliedOr(build))
	}
	if dump {
		fmt.Print(build.Reordered.Dump())
	}
	if test != nil {
		if compare {
			execute("baseline ", build.Baseline, test)
		}
		execute("reordered", build.Reordered, test)
	}
}

func appliedOr(build *pipeline.BuildResult) int {
	n := 0
	for _, r := range build.OrResults {
		if r.Applied {
			n++
		}
	}
	return n
}

// runFirstPass instruments, trains, and writes the profile data file.
func runFirstPass(src string, opts pipeline.Options, train []byte, path string) error {
	if train == nil {
		return fmt.Errorf("-profile-out requires -train (or -train-builtin)")
	}
	ins, err := pipeline.Instrument(src, opts)
	if err != nil {
		return err
	}
	ins.Exec = execEngine
	prof, orProf, err := ins.Train(train)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pipeline.WriteProfile(f, prof, orProf); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote profile for %d sequence(s) to %s\n",
		len(ins.Sequences)+len(ins.OrSequences), path)
	return f.Close()
}

// runSecondPass recompiles using a stored profile data file.
func runSecondPass(src string, opts pipeline.Options, path string) (*pipeline.BuildResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seqProfiles, orProfiles, err := core.ReadProfiles(f)
	if err != nil {
		return nil, err
	}
	return pipeline.Finalize(src, opts, seqProfiles, orProfiles)
}

func parseSet(s string) (lower.HeuristicSet, error) {
	switch s {
	case "I", "1":
		return lower.SetI, nil
	case "II", "2":
		return lower.SetII, nil
	case "III", "3":
		return lower.SetIII, nil
	default:
		return 0, fmt.Errorf("unknown heuristic set %q (want I, II, or III)", s)
	}
}

func loadInputs(wl string, files []string, trainFile, runFile string, trainBuiltin, runBuiltin bool) (src string, train, test []byte, err error) {
	if wl != "" {
		w, ok := workload.Named(wl)
		if !ok {
			return "", nil, nil, fmt.Errorf("unknown workload %q", wl)
		}
		src = w.Source
		if trainBuiltin {
			train = w.Train()
		}
		if runBuiltin {
			test = w.Test()
		}
	} else {
		if len(files) != 1 {
			return "", nil, nil, fmt.Errorf("expected exactly one source file (or -workload)")
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			return "", nil, nil, err
		}
		src = string(data)
	}
	if trainFile != "" {
		train, err = os.ReadFile(trainFile)
		if err != nil {
			return "", nil, nil, err
		}
	}
	if runFile != "" {
		test, err = os.ReadFile(runFile)
		if err != nil {
			return "", nil, nil, err
		}
	}
	return src, train, test, nil
}

func listSequences(prog *ir.Program) {
	clone := ir.CloneProgram(prog)
	found := core.Detect(clone, 0)
	for _, s := range found {
		fmt.Println(s)
	}
	fmt.Printf("%d sequences detected\n", len(found))
}

func execute(label string, prog *ir.Program, input []byte) {
	ret, st, out, err := interp.Exec(execEngine, prog, nil, input, nil, nil)
	check(err)
	os.Stdout.Write(out)
	fmt.Fprintf(os.Stderr,
		"%s: exit %d, %d insts, %d cond branches (%d taken), %d jumps, %d indirect\n",
		label, ret, st.Insts, st.CondBranches, st.TakenBranches,
		st.Jumps, st.IndirectJumps)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "brcc:", err)
		os.Exit(1)
	}
}
