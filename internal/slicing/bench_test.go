package slicing

import (
	"fmt"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
)

// BenchmarkAcceleratedRunPacked times the slicing layer at its two
// extremes, at a one-partial-block set and at the largest campaign set:
// tmr8 never detects some of its faults, so they are swept through every
// block, while rca32 detects every fault in block 0. The ledger metrics
// are the per-pattern walk's, identical at any speed.
func BenchmarkAcceleratedRunPacked(b *testing.B) {
	for _, name := range []string{"tmr8", "rca32"} {
		n := circuits.Registry[name]()
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		for _, count := range []int{32, 32768} {
			pats := faultsim.RandomPackedPatterns(n, count, 1)
			b.Run(fmt.Sprintf("%s/%d", name, count), func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = AcceleratedRunPacked(n, faults, pats); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Injections), "injections")
				b.ReportMetric(float64(res.ActualGateEvals), "gate_evals")
				b.ReportMetric(float64(res.Detected), "detected")
			})
		}
	}
}
