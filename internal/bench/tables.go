package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/workload"
)

func newTab(sb *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(sb, 2, 4, 2, ' ', tabwriter.AlignRight)
}

// Table2 renders the switch-translation heuristics (definitional).
func Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Heuristics Used for Translating switch Statements\n")
	sb.WriteString("(n = number of cases, m = possible values between first and last case)\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Set\tIndirect Jump\tBinary Search\tLinear Search\t")
	fmt.Fprintln(w, "I\tn>=4 && m<=3n\t!indirect && n>=8\totherwise\t")
	fmt.Fprintln(w, "II\tn>=16 && m<=3n\t!indirect && n>=8\totherwise\t")
	fmt.Fprintln(w, "III\tnever\tnever\talways\t")
	w.Flush()
	return sb.String()
}

// Table3 renders the test-program roster with input sizes.
func Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Test Programs\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Program\tDescription\tTrain bytes\tTest bytes\t")
	for _, wl := range workload.All() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t\n", wl.Name, wl.Desc, len(wl.Train()), len(wl.Test()))
	}
	w.Flush()
	return sb.String()
}

// Table4 renders the dynamic frequency measurements: original instruction
// counts and the percentage change in instructions and conditional
// branches after reordering, per heuristic set.
func (s *Suite) Table4() string {
	var sb strings.Builder
	sb.WriteString("Table 4: Dynamic Frequency Measurements\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Set\tProgram\tOriginal Insts\tInsts\tBranches\t")
	for _, set := range Sets() {
		var sumI, sumB float64
		var sumOrig uint64
		runs := s.Runs[set]
		for _, r := range runs {
			di := PctChange(r.Base.Stats.Insts, r.Reord.Stats.Insts)
			db := PctChange(r.Base.Stats.CondBranches, r.Reord.Stats.CondBranches)
			sumI += di
			sumB += db
			sumOrig += r.Base.Stats.Insts
			fmt.Fprintf(w, "%v\t%s\t%d\t%+.2f%%\t%+.2f%%\t\n",
				set, r.Workload.Name, r.Base.Stats.Insts, di, db)
		}
		n := float64(len(runs))
		fmt.Fprintf(w, "%v\taverage\t%d\t%+.2f%%\t%+.2f%%\t\n",
			set, sumOrig/uint64(len(runs)), sumI/n, sumB/n)
	}
	w.Flush()
	return sb.String()
}

// Table5 renders branch prediction measurements with the Ultra's (0,2)
// 2048-entry predictor on Heuristic Set II builds: original
// mispredictions, the percentage change after reordering, and — for
// programs whose mispredictions increased — the ratio of instructions
// saved per extra misprediction.
func (s *Suite) Table5() string {
	var sb strings.Builder
	sb.WriteString("Table 5: Branch Prediction Measurements Using a (0,2) Predictor with 2048 Entries\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Program\tOriginal Mispreds\tReordered Mispreds\tInst Ratio\t")
	var sumPct, sumRatio float64
	var nRatio int
	var sumOrig uint64
	runs := s.Runs[lower.SetII]
	for _, r := range runs {
		m0 := r.Base.Mispredicts[machine.UltraI.PredictorName]
		m1 := r.Reord.Mispredicts[machine.UltraI.PredictorName]
		pct := PctChange(m0, m1)
		sumPct += pct
		sumOrig += m0
		ratio := "N/A"
		if m1 > m0 {
			v := instRatio(r, m0, m1)
			ratio = fmt.Sprintf("%.2f", v)
			sumRatio += v
			nRatio++
		}
		fmt.Fprintf(w, "%s\t%d\t%+.2f%%\t%s\t\n", r.Workload.Name, m0, pct, ratio)
	}
	avgRatio := "N/A"
	if nRatio > 0 {
		avgRatio = fmt.Sprintf("%.2f", sumRatio/float64(nRatio))
	}
	fmt.Fprintf(w, "average\t%d\t%+.2f%%\t%s\t\n",
		sumOrig/uint64(len(runs)), sumPct/float64(len(runs)), avgRatio)
	w.Flush()
	return sb.String()
}

// instRatio is Tables 5 and 6's "Inst Ratio": instructions saved per
// extra misprediction, for m1 > m0. It is negative when reordering
// added instructions.
func instRatio(r *ProgramRun, m0, m1 uint64) float64 {
	return float64(int64(r.Base.Stats.Insts)-int64(r.Reord.Stats.Insts)) / float64(m1-m0)
}

// Table6 renders the predictor sweep: for (0,1) and (0,2) predictors of
// 32..2048 entries, the average misprediction change and the average
// instructions-saved-per-extra-misprediction ratio.
func (s *Suite) Table6() string {
	var sb strings.Builder
	sb.WriteString("Table 6: Branch Prediction Measurements Across Predictors\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Entries\t(0,1) Mispreds\t(0,1) Inst Ratio\t(0,2) Mispreds\t(0,2) Inst Ratio\t")
	runs := s.Runs[lower.SetII]
	for entries := 32; entries <= 2048; entries *= 2 {
		cols := make([]string, 0, 4)
		for _, bits := range []int{1, 2} {
			name := fmt.Sprintf("(0,%d)x%d", bits, entries)
			var sumPct, sumRatio float64
			var nRatio int
			for _, r := range runs {
				m0 := r.Base.Mispredicts[name]
				m1 := r.Reord.Mispredicts[name]
				sumPct += PctChange(m0, m1)
				if m1 > m0 {
					sumRatio += instRatio(r, m0, m1)
					nRatio++
				}
			}
			ratio := "N/A"
			if nRatio > 0 {
				ratio = fmt.Sprintf("%.2f", sumRatio/float64(nRatio))
			}
			cols = append(cols, fmt.Sprintf("%+.2f%%", sumPct/float64(len(runs))), ratio)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t\n", entries, cols[0], cols[1], cols[2], cols[3])
	}
	w.Flush()
	return sb.String()
}

// Table7 renders modelled execution times: the percentage change in
// cycles per machine, each machine using the heuristic set the paper
// compiled it with.
func (s *Suite) Table7() string {
	var sb strings.Builder
	sb.WriteString("Table 7: Execution Times (modelled cycles)\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Program\tSPARC IPC\tSPARC 20\tSPARC Ultra I\t")
	configs := machine.All()
	sums := make([]float64, len(configs))
	names := s.Runs[lower.SetI]
	for i := range names {
		cols := make([]string, len(configs))
		for ci, cfg := range configs {
			r := s.Runs[cfg.Switch][i]
			pct := PctChange(r.Base.Cycles[cfg.Name], r.Reord.Cycles[cfg.Name])
			sums[ci] += pct
			cols[ci] = fmt.Sprintf("%+.2f%%", pct)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t\n", names[i].Workload.Name, cols[0], cols[1], cols[2])
	}
	n := float64(len(names))
	fmt.Fprintf(w, "average\t%+.2f%%\t%+.2f%%\t%+.2f%%\t\n", sums[0]/n, sums[1]/n, sums[2]/n)
	w.Flush()
	return sb.String()
}

// Table8 renders the static measurements: growth in generated
// instructions, sequences detected, the share actually reordered, and
// average sequence lengths (in branches) before and after reordering.
func (s *Suite) Table8() string {
	var sb strings.Builder
	sb.WriteString("Table 8: Static Measurements\n\n")
	w := newTab(&sb)
	fmt.Fprintln(w, "Set\tProgram\tInsts\tTotal Seqs\tSeqs Reordered\tAvg Orig Len\tAvg After Len\t")
	for _, set := range Sets() {
		var sumPct, sumPctSeqs, sumLenO, sumLenA float64
		var nLen, totalSeqs int
		runs := s.Runs[set]
		for _, r := range runs {
			pct := PctChange(uint64(r.StaticBase), uint64(r.StaticReord))
			sumPct += pct
			total := r.TotalSeqs()
			reordered := r.ReorderedSeqs()
			totalSeqs += total
			pctSeqs := 0.0
			if total > 0 {
				pctSeqs = 100 * float64(reordered) / float64(total)
			}
			sumPctSeqs += pctSeqs
			var lo, la, n float64
			for _, res := range r.AppliedSeqs() {
				lo += float64(res.OrigBranches)
				la += float64(res.NewBranches)
				n++
			}
			avgO, avgA := "-", "-"
			if n > 0 {
				avgO = fmt.Sprintf("%.2f", lo/n)
				avgA = fmt.Sprintf("%.2f", la/n)
				sumLenO += lo / n
				sumLenA += la / n
				nLen++
			}
			fmt.Fprintf(w, "%v\t%s\t%+.2f%%\t%d\t%.2f%%\t%s\t%s\t\n",
				set, r.Workload.Name, pct, total, pctSeqs, avgO, avgA)
		}
		n := float64(len(runs))
		fmt.Fprintf(w, "%v\taverage\t%+.2f%%\t%.2f\t%.2f%%\t%.2f\t%.2f\t\n",
			set, sumPct/n, float64(totalSeqs)/n, sumPctSeqs/n,
			sumLenO/float64(nLen), sumLenA/float64(nLen))
	}
	w.Flush()
	return sb.String()
}

// Figure renders the sequence-length distributions of Figures 11-13
// (n = 11, 12 or 13, covering heuristic sets I, II and III) as text
// histograms of original and reordered sequence lengths.
func (s *Suite) Figure(n int) (string, error) {
	var set lower.HeuristicSet
	switch n {
	case 11:
		set = lower.SetI
	case 12:
		set = lower.SetII
	case 13:
		set = lower.SetIII
	default:
		return "", fmt.Errorf("bench: no figure %d (have 11, 12, 13)", n)
	}
	orig := map[int]int{}
	reord := map[int]int{}
	var sumO, sumR, cnt float64
	for _, r := range s.Runs[set] {
		for _, res := range r.AppliedSeqs() {
			orig[res.OrigBranches]++
			reord[res.NewBranches]++
			sumO += float64(res.OrigBranches)
			sumR += float64(res.NewBranches)
			cnt++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %d: Sequence Length for Heuristic Set %v\n\n", n, set)
	if cnt == 0 {
		sb.WriteString("(no reordered sequences)\n")
		return sb.String(), nil
	}
	fmt.Fprintf(&sb, "Original sequence length (average %.2f):\n", sumO/cnt)
	sb.WriteString(histogram(orig))
	fmt.Fprintf(&sb, "\nReordered sequence length (average %.2f):\n", sumR/cnt)
	sb.WriteString(histogram(reord))
	return sb.String(), nil
}

// histogram renders a length -> count map as horizontal bars.
func histogram(h map[int]int) string {
	maxLen, maxCount := 0, 0
	for l, c := range h {
		if l > maxLen {
			maxLen = l
		}
		if c > maxCount {
			maxCount = c
		}
	}
	var sb strings.Builder
	for l := 1; l <= maxLen; l++ {
		c := h[l]
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", c*50/maxCount)
		}
		if c > 0 && bar == "" {
			bar = "."
		}
		fmt.Fprintf(&sb, "%3d | %-50s %d\n", l, bar, c)
	}
	return sb.String()
}
