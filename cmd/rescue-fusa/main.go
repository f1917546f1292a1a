// Command rescue-fusa runs an ISO 26262 fault classification campaign:
// it wraps a benchmark circuit in the duplication-with-comparator safety
// mechanism, classifies every stuck-at fault, computes SPFM/LFM and
// cross-checks the verdicts with the ATPG-based tool-confidence flow.
//
// Usage:
//
//	rescue-fusa -circuit rca8 -patterns 128
package main

import (
	"flag"
	"fmt"
	"log"

	"rescue"
	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/fusa"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-fusa: ")
	circuit := flag.String("circuit", "c17", "benchmark circuit name")
	patterns := flag.Int("patterns", 128, "fault-injection patterns")
	seed := flag.Int64("seed", 1, "PRNG seed")
	protect := flag.Bool("protect", true, "wrap in duplication + comparator")
	flag.Parse()
	if *patterns < 0 {
		log.Fatalf("-patterns must be 0 or more, got %d", *patterns)
	}

	n, err := rescue.Circuit(*circuit)
	if err != nil {
		log.Fatal(err)
	}
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			log.Fatal(err)
		}
		n = sv.Comb
	}
	sc := &fusa.SafetyCircuit{N: n, FunctionalOutputs: n.Outputs}
	if *protect {
		sc, err = fusa.Duplicate(n)
		if err != nil {
			log.Fatal(err)
		}
	}
	faults := fault.Collapse(sc.N, fault.AllStuckAt(sc.N))
	pats := faultsim.RandomPackedPatterns(sc.N, *patterns, *seed)
	classes, err := fusa.ClassifyPacked(sc, faults, pats)
	if err != nil {
		log.Fatal(err)
	}
	m := fusa.ComputeMetrics(classes, 0.01)
	fmt.Printf("design    %s (%d gates, SM=%v)\n", sc.N.Name, sc.N.NumGates(), sc.HasSM())
	fmt.Printf("faults    %d classified over %d patterns\n", len(faults), *patterns)
	for _, c := range []fusa.FaultClass{fusa.Safe, fusa.SinglePoint, fusa.Residual, fusa.MultiPointDetected, fusa.MultiPointLatent} {
		fmt.Printf("  %-14s %d\n", c, m.Counts[c])
	}
	fmt.Printf("SPFM      %.3f\n", m.SPFM)
	fmt.Printf("LFM       %.3f\n", m.LFM)
	for _, lvl := range []fusa.ASIL{fusa.ASILB, fusa.ASILC, fusa.ASILD} {
		fmt.Printf("meets %s: %v\n", lvl, m.MeetsASIL(lvl))
	}
	cc, err := fusa.CrossCheck(sc, faults, classes, atpg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tool-confidence cross-check: %d suspicious classifications (%d PODEM calls, %d backtracks)\n",
		len(cc.Suspicions), cc.PODEMCalls, cc.Backtracks)
	for _, s := range cc.Suspicions {
		fmt.Printf("  fault %d (%s): %s\n", s.FaultIndex, s.Class, s.Reason)
	}
}
