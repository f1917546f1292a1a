package faultsim

import (
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
)

// BenchmarkFaultSimCone compares the cone-restricted incremental engine
// against the full-pass reference on the largest combinational registry
// circuit — the per-PR record of the PPSFP hot-path trajectory. The
// gate_evals metric is deterministic; ns/op tracks the realised speedup.
func BenchmarkFaultSimCone(b *testing.B) {
	n := circuits.ArrayMultiplier(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := RandomPatterns(n, 128, 3)
	b.Run("cone", func(b *testing.B) {
		b.ReportAllocs()
		var evals int64
		for i := 0; i < b.N; i++ {
			rep, err := Run(n, faults, pats)
			if err != nil {
				b.Fatal(err)
			}
			evals = rep.GateEvals
		}
		b.ReportMetric(float64(evals), "gate_evals")
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		var evals int64
		for i := 0; i < b.N; i++ {
			rep, err := RunFull(n, faults, pats)
			if err != nil {
				b.Fatal(err)
			}
			evals = rep.GateEvals
		}
		b.ReportMetric(float64(evals), "gate_evals")
	})
}

// BenchmarkAblation_FaultDropping compares campaigns with and without
// drop-on-first-detection. Without dropping, every fault is re-simulated
// on every block even after detection.
func BenchmarkAblation_FaultDropping(b *testing.B) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := RandomPatterns(n, 256, 5)
	var withDrop, withoutDrop int64
	for i := 0; i < b.N; i++ {
		// Both sides use the full-pass engine so the metric isolates
		// fault dropping (the cone restriction is ablated separately by
		// BenchmarkFaultSimCone).
		rep, err := RunFull(n, faults, pats)
		if err != nil {
			b.Fatal(err)
		}
		withDrop = rep.GateEvals
		// Without dropping: every fault simulated on every 64-pattern
		// block, plus the same per-block good-machine passes the
		// engine charges (every gate but the inputs — exact accounting).
		blocks := int64((len(pats) + 63) / 64)
		withoutDrop = (int64(len(faults)) + 1) * blocks * int64(n.NumGates()-len(n.Inputs))
	}
	b.ReportMetric(float64(withoutDrop)/float64(withDrop), "dropping_gain_x")
	b.Logf("fault dropping: %d vs %d gate-evals (%.1fx saved)",
		withDrop, withoutDrop, float64(withoutDrop)/float64(withDrop))
}
