package atpg

import (
	"runtime"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
)

// BenchmarkATPG tracks the test-generation hot path across the whole
// registry: the session-based test-and-drop flow, serial vs parallel
// deterministic phase, and the PODEM layer alone, as a serial
// classification of every collapsed fault. podem_calls, tests and
// backtracks are deterministic (identical at every parallelism level),
// and so is imply_evals, the implication gate evaluations of one
// classification; ns/op and flows_per_sec track the realised
// wall-clock, and ns/imply_eval divides a classification's time by its
// implication evals, the PODEM layer's cost per unit of its work. The
// drop-vs-nodrop sub-benchmark on mul8 prints both PODEM call counts —
// the figure fault dropping exists to shrink — and fails if dropping
// ever stops paying. Every flow and classification runs on a fresh copy
// of the netlist, made outside the timer, so it searches instead of
// recalling an earlier iteration's PODEM verdicts.
func BenchmarkATPG(b *testing.B) {
	for _, name := range circuits.Names() {
		n := combRegistry(b, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		b.Run(name+"/classify", func(b *testing.B) {
			b.ReportAllocs()
			var cls *Classification
			evals := obsImplyEvals.Value()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := n.Clone()
				b.StartTimer()
				var err error
				if cls, err = ClassifyFaults(fresh, faults, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			evals = obsImplyEvals.Value() - evals
			b.ReportMetric(float64(cls.Backtracks), "backtracks")
			b.ReportMetric(float64(evals)/float64(b.N), "imply_evals")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/imply_eval")
		})
		for _, mode := range []struct {
			tag     string
			workers int
		}{
			{"serial", 1},
			{"parallel", runtime.NumCPU()},
		} {
			b.Run(name+"/"+mode.tag, func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh := n.Clone()
					b.StartTimer()
					var err error
					res, err = GenerateTests(fresh, faults, FlowOptions{
						RandomPatterns: 16, Seed: 3, Compact: true,
						PODEM: Options{Spare: NewSlots(mode.workers - 1)},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.PODEMCalls), "podem_calls")
				b.ReportMetric(float64(len(res.Tests)), "tests")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows_per_sec")
			})
		}
	}
	b.Run("mul8/drop-vs-nodrop", func(b *testing.B) {
		n := circuits.ArrayMultiplier(8)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		var drop *Result
		var nodrop *Classification
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dn, nn := n.Clone(), n.Clone()
			b.StartTimer()
			var err error
			// No random bootstrap: the deterministic phase carries the
			// whole fault list, isolating the dropping effect.
			drop, err = GenerateTests(dn, faults, FlowOptions{Seed: 3, Compact: true})
			if err != nil {
				b.Fatal(err)
			}
			// Without dropping, every fault takes its own PODEM verdict.
			nodrop, err = ClassifyFaults(nn, faults, Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		if drop.PODEMCalls >= nodrop.Calls {
			b.Fatalf("dropping must reduce PODEM calls on mul8: %d (drop) >= %d (no-drop)",
				drop.PODEMCalls, nodrop.Calls)
		}
		b.ReportMetric(float64(drop.PODEMCalls), "podem_calls_drop")
		b.ReportMetric(float64(nodrop.Calls), "podem_calls_nodrop")
		b.Logf("mul8 (%d faults): %d PODEM calls with dropping vs %d without (%.1fx fewer)",
			len(faults), drop.PODEMCalls, nodrop.Calls,
			float64(nodrop.Calls)/float64(drop.PODEMCalls))
	})
}
