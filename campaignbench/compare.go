package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"rescue/campaignbench/stats"
)

func appendRecord(path string, res *runRecord) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// minPairs is the least number of parent/change pairs a comparison
// rests on, and the number of runs in each set of --repeat.
const minPairs = 10

// verdict classifies one end-to-end metric of one workload, parent
// values p against change values c (run i of each forms a pair). A
// metric whose parent spread is wider than its bound is unresolved
// unless every change run beats every parent run.
func verdict(m metricSpec, p, c []float64) (string, float64) {
	ps, cs := stats.Summarize(p), stats.Summarize(c)
	worse := (cs.Median - ps.Median) / math.Abs(ps.Median)
	if !m.lowerIsBetter() {
		worse = -worse
	}
	switch {
	case len(p) < minPairs:
		return fmt.Sprintf("unresolved (%d pairs, need %d)", len(p), minPairs), worse
	case ps.Spread() > m.Bound && !allBetter(m, p, c):
		return "unresolved (spread above bound)", worse
	case worse > m.Bound:
		return "regressed", worse
	}
	return "within bound", worse
}

func better(m metricSpec, change, parent float64) bool {
	if m.lowerIsBetter() {
		return change < parent
	}
	return change > parent
}

func allBetter(m metricSpec, p, c []float64) bool {
	for _, cv := range c {
		for _, pv := range p {
			if !better(m, cv, pv) {
				return false
			}
		}
	}
	return true
}

// claimMet applies the gain rule: at least nine tenths of the pairs won
// (ties count for neither side) and a median difference, in the claimed
// direction, larger than the parent's interquartile range.
func claimMet(m metricSpec, p, c []float64) (bool, string) {
	wins := 0
	for i := range p {
		if better(m, c[i], p[i]) {
			wins++
		}
	}
	ps, cs := stats.Summarize(p), stats.Summarize(c)
	diff := cs.Median - ps.Median
	iqr := ps.Q3 - ps.Q1
	ok := len(p) >= minPairs && wins*10 >= 9*len(p) && better(m, cs.Median, ps.Median) && math.Abs(diff) > iqr
	return ok, fmt.Sprintf("wins %d/%d, median %g -> %g (%+.2f%%), parent IQR %g",
		wins, len(p), ps.Median, cs.Median, 100*diff/math.Abs(ps.Median), iqr)
}

// compareFiles compares the end-to-end metrics of two sets of runs,
// parent and change, pairing the i-th run of a workload in each.
func compareFiles(out io.Writer, spec *benchSpec, parentPath, changePath, claim string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(change) == 0 {
		return fmt.Errorf("nothing to compare: %d parent and %d change records", len(parent), len(change))
	}
	cohort := parent[0].Cohort
	for _, r := range append(append([]runRecord(nil), parent...), change...) {
		if r.Cohort != cohort {
			return fmt.Errorf("refusing to compare across cohorts: %+v and %+v", cohort, r.Cohort)
		}
		if !r.Correct {
			return fmt.Errorf("%s seed %d: run with incorrect outputs cannot be compared", r.Workload, r.Seed)
		}
	}
	claimMetric, claimWorkload, _ := strings.Cut(claim, "@")
	claimSeen := claim == ""
	failed := false
	fmt.Fprintf(out, "%-18s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, sw := range spec.Workloads {
		p, c := valuesOf(parent, sw.Name), valuesOf(change, sw.Name)
		for _, m := range spec.EndToEnd {
			pv, cv := p[m.Name], c[m.Name]
			n := min(len(pv), len(cv))
			if n == 0 {
				continue
			}
			pv, cv = pv[:n], cv[:n]
			v, worse := verdict(m, pv, cv)
			failed = failed || v == "regressed"
			fmt.Fprintf(out, "%-18s %-16s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n", sw.Name, m.Name,
				stats.Summarize(pv).Median, stats.Summarize(cv).Median, 100*worse, 100*m.Bound, v)
			if sw.Name == claimWorkload && m.Name == claimMetric {
				claimSeen = true
				ok, detail := claimMet(m, pv, cv)
				word := "MET"
				if !ok {
					word, failed = "NOT MET", true
				}
				fmt.Fprintf(out, "claim %s: %s (%s)\n", claim, word, detail)
			}
		}
	}
	if !claimSeen {
		return fmt.Errorf("claim %q names no end-to-end metric and workload present in both files", claim)
	}
	if failed {
		return errReported
	}
	return nil
}

// valuesOf collects each end-to-end metric's values over a workload's
// untraced runs, in file order.
func valuesOf(recs []runRecord, workload string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// repeatRuns runs sets×minPairs untraced runs of each workload — set
// after set, the same ten seeds in each — and prints every end-to-end
// metric's median per set, the largest relative difference from the
// first set's median, and each set's spread, against the metric's bound.
// A metric is steady when the medians differ by less than the bound and
// each spread (setup_s exempt) is below a third of it.
func repeatRuns(ctx context.Context, out io.Writer, spec *benchSpec, ws []workload, seedFor func(workload) int64,
	sets int, o options) error {
	if o.trace {
		return fmt.Errorf("--repeat compares end-to-end metrics; use --trace 0")
	}
	unsteady := false
	for _, w := range ws {
		vals := make([]map[string][]float64, sets)
		for s := range vals {
			vals[s] = make(map[string][]float64)
			for i := range minPairs {
				seed := seedFor(w) + int64(i)
				res, err := measure(ctx, w, seed, o)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: incorrect outputs: %v", w.name, seed, res.problems)
				}
				fmt.Fprintf(out, "# %s set %d seed %d:", w.name, s+1, seed)
				for _, m := range spec.EndToEnd {
					v := res.Metrics[m.Name].Value
					vals[s][m.Name] = append(vals[s][m.Name], v)
					fmt.Fprintf(out, " %s=%.6g", m.Name, v)
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "%-18s %-16s %-28s %9s %7s  %-24s %s\n", "workload", "metric", "set medians", "diff", "bound", "spreads", "verdict")
		for _, m := range spec.EndToEnd {
			var meds, spreads []string
			first := stats.Summarize(vals[0][m.Name]).Median
			diff, spreadMax := 0.0, 0.0
			for s := range vals {
				st := stats.Summarize(vals[s][m.Name])
				meds = append(meds, fmt.Sprintf("%.5g", st.Median))
				spreads = append(spreads, fmt.Sprintf("%.2f%%", 100*st.Spread()))
				diff = math.Max(diff, math.Abs(st.Median-first)/math.Abs(first))
				spreadMax = math.Max(spreadMax, st.Spread())
			}
			ok := diff < m.Bound && (m.Name == "setup_s" || spreadMax < m.Bound/3)
			word := "steady"
			if !ok {
				word, unsteady = "UNSTEADY", true
			}
			fmt.Fprintf(out, "%-18s %-16s %-28s %8.2f%% %6.1f%%  %-24s %s\n", w.name, m.Name,
				strings.Join(meds, " "), 100*diff, 100*m.Bound, strings.Join(spreads, " "), word)
		}
	}
	if unsteady {
		return fmt.Errorf("some metric is not steady across sets")
	}
	return nil
}
