// Command rescue-atpg generates and evaluates stuck-at test sets for the
// built-in benchmark circuits: random-pattern bootstrap, deterministic
// PODEM with test-and-drop (optionally parallel — results are identical
// at any worker count), untestable-fault identification and static
// compaction, all on one persistent fault-simulation session.
//
// Usage:
//
//	rescue-atpg -circuit mul8 -random 64 -seed 1 -parallel 8 -timing t.json
//
// -timing writes one bench-schema JSON object (like rescue-campaign's):
// deterministic flow counters plus the wall clock under .metrics.<name>
// (e.g. .metrics.podem_calls, .metrics.wall_ms), with host and git
// provenance under .provenance.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rescue"
	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/obs/bench"
	"rescue/internal/profiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-atpg: ")
	circuit := flag.String("circuit", "c17", "benchmark circuit name")
	random := flag.Int("random", 64, "random patterns before deterministic ATPG")
	seed := flag.Int64("seed", 1, "PRNG seed")
	compact := flag.Bool("compact", true, "apply reverse-order static compaction")
	parallel := flag.Int("parallel", 1, "deterministic-phase PODEM workers (results are identical at any level)")
	timing := flag.String("timing", "", "machine-readable wall-clock benchmark JSON path")
	list := flag.Bool("list", false, "list available circuits and exit")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if *random < 0 {
		log.Fatalf("-random must be 0 or more, got %d", *random)
	}
	if *parallel < 1 {
		log.Fatalf("-parallel must be 1 or more, got %d", *parallel)
	}

	stopProf, perr := prof.Start()
	if perr != nil {
		log.Fatal(perr)
	}
	defer stopProf()
	// log.Fatal exits without running defers; fatal flushes the profiles
	// first so a failed run still leaves usable pprof output.
	fatal := func(v ...any) {
		stopProf()
		log.Fatal(v...)
	}

	if *list {
		for _, name := range rescue.CircuitNames() {
			fmt.Println(name)
		}
		return
	}
	n, err := rescue.Circuit(*circuit)
	if err != nil {
		fatal(err)
	}
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential circuit: using full-scan view (%d pseudo inputs)\n", len(sv.PseudoInputs))
		n = sv.Comb
	}
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	start := time.Now()
	res, err := atpg.GenerateTests(n, faults, atpg.FlowOptions{
		RandomPatterns: *random, Seed: *seed, Compact: *compact,
		PODEM: atpg.Options{Spare: atpg.NewSlots(*parallel - 1)},
	})
	wall := time.Since(start)
	if err != nil {
		fatal(err)
	}
	s := n.Stats()
	fmt.Printf("circuit   %s: %d gates, %d inputs, %d outputs, depth %d\n",
		s.Name, s.Gates, s.Inputs, s.Outputs, s.MaxLevel)
	fmt.Printf("faults    %d collapsed stuck-at\n", len(faults))
	fmt.Printf("random    %d faults detected by bootstrap\n", res.RandomDetected)
	fmt.Printf("podem     %d calls (%d dropped unsearched, %d speculative vectors discarded), %d backtracks, %d workers\n",
		res.PODEMCalls, res.DropDetected, res.DiscardedTests, res.Backtracks, *parallel)
	fmt.Printf("tests     %d vectors after compaction\n", len(res.Tests))
	fmt.Printf("coverage  raw %.2f%%  effective %.2f%%  (untestable %d, aborted %d)\n",
		res.Coverage.Raw()*100, res.Coverage.Effective()*100,
		res.Coverage.Untestable, res.Coverage.Aborted)

	if *timing != "" {
		tr := bench.New("atpg", 1)
		tr.Params = map[string]any{"circuit": *circuit}
		tr.Metrics["faults"] = float64(len(faults))
		tr.Metrics["random_patterns"] = float64(*random)
		tr.Metrics["random_detected"] = float64(res.RandomDetected)
		tr.Metrics["drop_detected"] = float64(res.DropDetected)
		tr.Metrics["discarded_tests"] = float64(res.DiscardedTests)
		tr.Metrics["podem_calls"] = float64(res.PODEMCalls)
		tr.Metrics["backtracks"] = float64(res.Backtracks)
		tr.Metrics["sim_gate_evals"] = float64(res.SimGateEvals)
		tr.Metrics["tests"] = float64(len(res.Tests))
		tr.Metrics["coverage_effective"] = res.Coverage.Effective()
		tr.Metrics["parallel"] = float64(*parallel)
		tr.Metrics["wall_ms"] = float64(wall.Milliseconds())
		if werr := tr.Write(*timing); werr != nil {
			fatal(werr)
		}
	}
	if res.Coverage.Aborted > 0 {
		stopProf() // os.Exit skips defers; flush the profiles first
		os.Exit(2)
	}
}
