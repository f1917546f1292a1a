package atpg

import (
	"runtime"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
)

// BenchmarkATPG tracks the test-generation hot path across the whole
// registry: the session-based test-and-drop flow, serial vs parallel
// deterministic phase. podem_calls and tests are deterministic
// (identical at every parallelism level); ns/op and flows_per_sec track
// the realised wall-clock. The drop-vs-nodrop sub-benchmark on mul8
// prints both PODEM call counts — the figure fault dropping exists to
// shrink — and fails if dropping ever stops paying. Every flow runs on
// a fresh copy of the netlist, made outside the timer, so it searches
// instead of recalling an earlier iteration's PODEM verdicts.
func BenchmarkATPG(b *testing.B) {
	for _, name := range circuits.Names() {
		n := combRegistry(b, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
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
						RandomPatterns: 16, Seed: 3, Compact: true, Parallelism: mode.workers,
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
		var drop, nodrop *Result
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
			nodrop, err = GenerateTests(nn, faults, FlowOptions{Seed: 3, Compact: true, NoDrop: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		if drop.PODEMCalls >= nodrop.PODEMCalls {
			b.Fatalf("dropping must reduce PODEM calls on mul8: %d (drop) >= %d (no-drop)",
				drop.PODEMCalls, nodrop.PODEMCalls)
		}
		b.ReportMetric(float64(drop.PODEMCalls), "podem_calls_drop")
		b.ReportMetric(float64(nodrop.PODEMCalls), "podem_calls_nodrop")
		b.Logf("mul8 (%d faults): %d PODEM calls with dropping vs %d without (%.1fx fewer)",
			len(faults), drop.PODEMCalls, nodrop.PODEMCalls,
			float64(nodrop.PODEMCalls)/float64(drop.PODEMCalls))
	})
}
