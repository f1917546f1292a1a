// Command rescue-report regenerates the paper's figures: the Fig. 1
// research-results distribution and the Fig. 2 holistic EDA flow run
// over a chosen benchmark circuit. A sequential circuit runs on its
// full-scan view, as in rescue-atpg, rescue-fusa and the campaign.
//
// Usage:
//
//	rescue-report -circuit rca8
package main

import (
	"flag"
	"fmt"
	"log"

	"rescue"
	"rescue/internal/atpg"
	"rescue/internal/seu"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-report: ")
	circuit := flag.String("circuit", "rca8", "benchmark circuit for the holistic flow")
	patterns := flag.Int("patterns", 100, "fault-injection patterns")
	years := flag.Float64("years", 10, "aging horizon in years")
	seed := flag.Int64("seed", 3, "PRNG seed")
	flag.Parse()

	fmt.Println("== Fig. 1: distribution of RESCUE collaborative research results ==")
	fmt.Print(rescue.RenderFig1())
	fmt.Println()

	n, err := rescue.Circuit(*circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Fig. 2: holistic EDA flow ==")
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sequential circuit: using full-scan view (%d pseudo inputs)\n", len(sv.PseudoInputs))
		n = sv.Comb
	}
	rep, err := rescue.RunHolisticFlow(rescue.FlowConfig{
		Netlist:     n,
		Environment: seu.SeaLevel,
		Technology:  seu.Node28,
		Years:       *years,
		Patterns:    *patterns,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
}
