package main

import (
	"math/rand/v2"

	"rescue/internal/campaign"
	"rescue/internal/circuits"
)

// Load shape, fixed for a 2-CPU host: every sample runs the engine at
// parallelism 2, or the server with 2 concurrent runs of 1 worker each
// and 2 closed-loop clients, all in one process.
const (
	batchParallelism = 2
	serverActiveRuns = 2
	serverClients    = 2
	// workerSlots is the number of jobs that run at once in every
	// workload: batchParallelism, or serverActiveRuns runs of 1 worker.
	workerSlots = 2
)

// workload is one set of inputs the benchmark runs; why each exists is
// in BENCHMARK.json and the package doc. spec builds a sample's inputs
// from the seed alone; the program under test receives only those
// generated inputs.
type workload struct {
	name string
	seed int64 // default seed
	// inputs is how many distinct inputs a run cycles its samples
	// through (see inputSeed), where one input's cost depends on its seed
	// more than a bound allows: one holistic seed in six leaves mul8
	// half again as much PODEM backtracking.
	inputs int
	// minSamples is the least number of child-process samples a run
	// takes, whatever its time budget: at least two per input, so the
	// samples of each input can be checked against each other.
	minSamples int
	// tailQ is the pooled latency quantile reported as latency_tail_s:
	// the highest of p90/p99 that minSamples samples leave ten
	// operations beyond.
	tailQ float64
	spec  func(seed int64) sampleSpec
}

// sampleSpec is everything a child process needs to run one sample.
type sampleSpec struct {
	// Server selects the server-churn shape: every matrix is one run
	// POSTed to an in-process campaign.Server. Otherwise Matrices holds
	// the one campaign.Run matrix.
	Server   bool              `json:"server,omitempty"`
	Matrices []campaign.Matrix `json:"matrices"`
	// Warm lists the circuits the set-up phase builds artifacts for.
	Warm []string `json:"warm"`
}

var workloads = []workload{
	{
		name: "holistic-registry",
		seed: 1, inputs: 6, minSamples: 12, tailQ: 0.9,
		spec: func(seed int64) sampleSpec {
			return sampleSpec{
				Matrices: []campaign.Matrix{{
					Circuits:  circuits.Names(),
					Scenarios: []campaign.Scenario{campaign.ScenarioHolistic},
					Patterns:  32, Years: 5, Seed: seed,
				}},
				Warm: circuits.Names(),
			}
		},
	},
	{
		// mul8 is left out: its cross-check alone would make the sweep
		// PODEM-bound again.
		name: "fi-sweep",
		seed: 1, inputs: 1, minSamples: 9, tailQ: 0.9,
		spec: func(seed int64) sampleSpec {
			return sampleSpec{
				Matrices: []campaign.Matrix{{
					Circuits:     fiCircuits(),
					Environments: []string{"sea-level", "GEO"},
					Scenarios:    []campaign.Scenario{campaign.ScenarioReliability, campaign.ScenarioSafety},
					Patterns:     32768, Years: 5, Seed: seed,
				}},
				Warm: fiCircuits(),
			}
		},
	},
	{
		// A closed loop, because the server's tenants (CI pipelines) wait
		// for their verdict before submitting again.
		name: "server-churn",
		seed: 42, inputs: 3, minSamples: 6, tailQ: 0.99,
		spec: func(seed int64) sampleSpec {
			return sampleSpec{Server: true, Matrices: churnMatrices(seed, churnRuns), Warm: fiCircuits()}
		},
	},
}

// churnRuns is the number of runs one server-churn sample submits:
// enough overlap for the stage cache to share well over a third of all
// stage executions, short enough for about ten samples per run.
const churnRuns = 240

// inputStride spaces a run's inputs: a run at seed s takes its inputs
// from seeds s, s+inputStride, s+2·inputStride, ..., so runs whose
// seeds differ by less than inputStride share no input.
const inputStride = 1_000_003

// inputSeed is the seed of a run's k-th input.
func (w workload) inputSeed(seed int64, k int) int64 {
	return seed + int64(k)*inputStride
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fiCircuits is the registry without mul8.
func fiCircuits() []string {
	var out []string
	for _, c := range circuits.Names() {
		if c != "mul8" {
			out = append(out, c)
		}
	}
	return out
}

// churnMatrices generates the server-churn traffic: each run gets two
// distinct circuits (mul8 excluded), one environment, one scenario, a
// pattern budget of 8192 and a matrix seed in 1..8. The small seed range
// is what makes runs overlap: about half of all stage executions are
// then stage-cache hits or waits. Every circuit, environment, scenario
// and matrix seed occurs equally often (to within one); the seed decides
// how they combine and in which order. Independent draws would let the
// seed change how much work a sample holds by more than a regression
// bound.
func churnMatrices(seed int64, runs int) []campaign.Matrix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	// deal returns n values in [0, k), each n/k or n/k+1 times, shuffled.
	deal := func(n, k int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i % k
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	pool := fiCircuits()
	envs := campaign.EnvironmentNames()
	scens := campaign.Scenarios()
	// Run i takes circuits slots[2i] and slots[2i+1]; a run dealt the
	// same circuit twice trades its second slot with a run that can take
	// it without a repeat of its own.
	slots := deal(2*runs, len(pool))
	for i := range runs {
		a, b := 2*i, 2*i+1
		if slots[a] != slots[b] {
			continue
		}
		for j := range slots {
			if j/2 != i && slots[j] != slots[a] && slots[j^1] != slots[b] {
				slots[b], slots[j] = slots[j], slots[b]
				break
			}
		}
	}
	env, scen, mseed := deal(runs, len(envs)), deal(runs, len(scens)), deal(runs, 8)
	out := make([]campaign.Matrix, runs)
	for i := range out {
		out[i] = campaign.Matrix{
			Circuits:     []string{pool[slots[2*i]], pool[slots[2*i+1]]},
			Environments: []string{envs[env[i]]},
			Scenarios:    []campaign.Scenario{scens[scen[i]]},
			Patterns:     8192,
			Years:        5,
			Seed:         1 + int64(mseed[i]),
		}
	}
	return out
}
