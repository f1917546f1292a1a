package campaign

import (
	"context"
	"runtime"
	"testing"

	"rescue/internal/circuits"
)

func benchMatrix() Matrix {
	return Matrix{
		Circuits:  circuits.Names(),
		Scenarios: []Scenario{ScenarioHolistic},
		Patterns:  32,
		Years:     5,
		Seed:      1,
	}
}

// freshArtifacts rebuilds the circuits' artifacts with the timer
// stopped. Every job of a circuit shares its artifact's netlist, and
// with it the netlist's PODEM verdict table, so without this every
// iteration after the first would recall its searches.
func freshArtifacts(b *testing.B, circuits []string) {
	b.StopTimer()
	forgetCircuitArtifacts(circuits...)
	for _, name := range circuits {
		circuitArtifactFor(name)
	}
	b.StartTimer()
}

func runBench(b *testing.B, parallelism int) {
	b.Helper()
	m := benchMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		freshArtifacts(b, m.Circuits)
		// The raw-engine trajectory deliberately bypasses the stage
		// cache: with it on, every iteration after the first would
		// measure pure cache replay. BenchmarkCampaignMemo (repo root)
		// is the cache-on/cache-off ablation.
		sum, err := Run(context.Background(), m, Config{Parallelism: parallelism, DisableStageCache: true})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed != 0 {
			b.Fatalf("campaign failures:\n%s", sum.Render())
		}
	}
	b.ReportMetric(float64(len(circuits.Names()))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkCampaign compares the serial and parallel engine over the full
// built-in circuit registry — the perf trajectory baseline for future
// scaling PRs. The sharded variant splits large fault lists into
// parallel shard jobs that all draw one circuit artifact (netlist,
// compiled machine, collapsed fault list) from the per-circuit cache
// instead of rebuilding it per job. Each iteration starts from fresh
// artifacts, built outside the timer.
func BenchmarkCampaign(b *testing.B) {
	b.Run("serial", func(b *testing.B) { runBench(b, 1) })
	b.Run("parallel", func(b *testing.B) { runBench(b, runtime.NumCPU()) })
	b.Run("parallel-sharded", func(b *testing.B) {
		m := benchMatrix()
		m.Shards = 4
		b.ReportAllocs()
		jobs := 0
		for i := 0; i < b.N; i++ {
			freshArtifacts(b, m.Circuits)
			sum, err := Run(context.Background(), m, Config{Parallelism: runtime.NumCPU(), DisableStageCache: true})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Failed != 0 {
				b.Fatalf("campaign failures:\n%s", sum.Render())
			}
			jobs = sum.Jobs
		}
		b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}
