// Command campaignbench is the RESCUE toolset's benchmark: end-to-end
// campaign metrics with their spread, per workload, plus a per-layer
// breakdown from a traced replay. BENCHMARK.json at the repository root
// lists the workloads, every metric with its unit and direction, and the
// bound by which an end-to-end metric may worsen before a change counts
// as a regression.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash campaignbench/run.sh --workload holistic-registry --seed 1 --seconds 30 --trace 0
//	bash campaignbench/run.sh --workload all                 # every workload, default seeds
//	bash campaignbench/run.sh --workload all --trace 1       # per-layer metrics + trace-<workload>.jsonl
//
// Each run prints a table (metric, unit, value, median, q1, q3, n) and,
// as its last line, one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.
//
// # Workloads
//
// Where a campaign spends its time depends on the campaign, so no single
// workload shows every layer:
//
//   - holistic-registry: all 18 registry circuits × sea-level × 28nm ×
//     holistic, 32 patterns, 5 years, campaign.Run at parallelism 2.
//     PODEM does over 90% of the work and the mul8 job sets the
//     makespan. The stage cache finds nothing to share and nothing is
//     checkpointed: this is the bypass side for the cache and durability
//     layers. One matrix seed in six leaves mul8 half again as much PODEM
//     backtracking, so a run cycles its samples through six matrix seeds
//     (the run's seed, and five more spaced 1000003 apart).
//   - fi-sweep: the 17 circuits other than mul8 × {sea-level, GEO} ×
//     28nm × {reliability, safety}, 32768 patterns: 68 jobs. Fault
//     injection dominates (slicing and aging), PODEM through the safety
//     cross-check is a few percent, and safety is served from the stage
//     cache for the second environment. mul8's cross-check alone would
//     make the sweep PODEM-bound again, so it is left out.
//   - server-churn: an in-process campaign.Server on loopback (2 active
//     runs of 1 worker, default queue, run directories in a fresh temp
//     dir) and 2 closed-loop clients, because the server's tenants (CI
//     pipelines) wait for their verdict. Each client POSTs /runs, polls
//     GET /runs/{id} every 0.5 ms until the run is terminal, then GETs
//     its result. A sample submits 240 runs, each with 2 distinct
//     circuits other than mul8, 1 of 4 environments, 1 of the 5
//     scenarios, 8192 patterns and a matrix seed in 1..8; every value
//     occurs equally often and the seed decides how they combine. The
//     overlap makes about a third of all stage executions cache hits or
//     waits, so admission (checkpoint fsyncs before the 202, about 4 ms)
//     and HTTP are a large part of the median latency — the write path
//     no batch workload touches. A run cycles through three such
//     traffic mixes.
//
// --seed overrides a workload's seed (default 1, 1 and 42); the program
// under test receives only the inputs generated from it. Every sample
// runs in a fresh child process (this binary re-executes itself), so
// the process-wide circuit-artifact and stage caches start cold as they
// do for a CLI user, and the child's rusage gives CPU time and peak RSS.
//
// # Host speed
//
// On a shared host, other tenants slow cache-bound work such as a
// campaign by 20% or more for tens of seconds at a time. Each sample
// therefore times a pointer chase of the benchmark's own right before
// and after its measured phase, and its timings are reported scaled to
// the chase's speed on the reference host (probe.go); the table's notes
// give the unscaled medians too.
//
// # Correctness
//
// Every sample's output digest — sha256 of Summary.JSON(), or of the
// server's /result bodies in submission order — must match digests.json
// for the inputs of a workload's default run, and the samples of one
// input must agree at any seed; a mismatching sample counts all its
// operations as failed. The traced replay must reproduce every job's
// core.Report field for field. Any failure prints "correct": false and
// exits 1.
//
// # Traced run
//
// --trace 1 runs three untimed samples for the obs counter deltas and
// the reference results, then one more fresh process that replays the
// campaign serially: it expands each matrix and calls each layer's
// public functions in internal/core's stage order, skipping a stage
// whose declared inputs it already computed, as the stage cache does.
// Server-churn runs are wrapped in campaign.NewCheckpoint with one
// Checkpoint.Append per job. Every call is a span (run → job → stage →
// call) written to trace-<workload>.jsonl; a layer's share is its spans'
// self time over the replay's wall time.
//
// # Comparing two versions
//
//	campaignbench --workload fi-sweep --seed 7 --out parent.jsonl   # parent build
//	campaignbench --workload fi-sweep --seed 7 --out change.jsonl   # change build; alternate, ≥10 pairs
//	campaignbench --compare --claim campaign_s@fi-sweep parent.jsonl change.jsonl
//
// A claim holds when the change wins at least 9 of 10 pairs and the
// medians differ by more than the parent's interquartile range. Every
// other end-to-end metric on every workload is reported as within
// bound, regressed, or unresolved (spread wider than the bound). Records
// from different cohorts (host, CPU count, OS/arch, Go version) are
// never compared. --repeat 2 runs two sets of ten runs of the same code
// and prints each metric's median difference against its bound.
//
// # Numbers at the time the benchmark was defined
//
// Medians of ten seeds per workload on a 2-CPU Linux VM (go1.24.0),
// timings scaled to the reference host speed:
//
//	workload           campaign_s  cpu_s   latency p50 / tail   peak RSS  setup
//	holistic-registry  1.36-1.44 s 1.7 s   3.3 ms / p90 43 ms   15 MB     9 ms
//	fi-sweep           1.9-2.0 s   3.5 s   30 ms  / p90 150 ms  24 MB     7 ms
//	server-churn       3.1-3.3 s   6.1 s   9.6 ms / p99 150 ms  22 MB     8 ms
//
// server-churn's 3.2 s per 240 runs is about 75 runs/s. The traced
// replay puts atpg.generate_tests plus fusa.crosscheck at 98% of the
// holistic-registry replay and 4% of fi-sweep's, where slicing (46%)
// and aging (33%) dominate; stage-cache dedup is 0 on holistic-registry
// and 0.35 on server-churn. Over ten seeds, run-to-run spread
// (interquartile range over median) reached 0.11 on fi-sweep and 0.19 on
// the other two workloads while the host was busy, and the medians of
// two sets of ten runs differed by up to 0.14 (0.20 unscaled); hence
// bounds of 0.25.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errReported) {
			log.Print(err)
		}
		os.Exit(1)
	}
}

// errReported is returned after a failure (incorrect outputs, a
// regression, a claim not met) has been reported on standard output.
var errReported = errors.New("failure reported")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	name := fs.String("workload", "", `workload to run, or "all"`)
	seed := fs.Int64("seed", 0, "input seed (default: the workload's own)")
	seconds := fs.Float64("seconds", 30, "time budget of an untraced run; each workload also takes a minimum number of samples")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced replay instead of the end-to-end metrics")
	traceDir := fs.String("trace-dir", ".", "directory trace-<workload>.jsonl is written to")
	out := fs.String("out", "", "append each run's full record (quartiles, cohort) to this JSONL file")
	compare := fs.Bool("compare", false, "compare two --out files given as arguments: parent, then change")
	claim := fs.String("claim", "", "with --compare: the metric@workload the change claims to improve")
	repeat := fs.Int("repeat", 0, "run this many sets of ten runs (seeds seed, seed+1, ...) and compare their medians")
	child := fs.Bool("child", false, "serve one request from the parent process on stdin (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child {
		return childMain(os.Stdin, stdout)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare needs two files after its flags: parent, then change")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1), *claim)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown --workload %q (have all and the workloads of %s)", *name, specFile)
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	seedFor := func(w workload) int64 {
		if seedSet {
			return *seed
		}
		return w.seed
	}
	o := options{seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	ctx := context.Background()
	if *repeat > 0 {
		return repeatRuns(ctx, stdout, spec, ws, seedFor, *repeat, o)
	}
	incorrect := false
	for _, w := range ws {
		res, err := measure(ctx, w, seedFor(w), o)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				return err
			}
		}
		if err := res.report(stdout, spec.metrics(o.trace)); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errReported
	}
	return nil
}
