// Command rescue-rsn exercises IEEE 1687 reconfigurable scan networks:
// generation, structural test, fault coverage, diagnosis and the
// hierarchical-vs-flat access-cost comparison.
//
// Usage:
//
//	rescue-rsn -levels 4 -tdrs 2 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"

	"rescue/internal/rsn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-rsn: ")
	levels := flag.Int("levels", 4, "SIB nesting levels")
	tdrs := flag.Int("tdrs", 2, "TDRs per level")
	seed := flag.Int64("seed", 7, "network generator seed")
	diagnose := flag.String("diagnose", "", "inject a SIB-stuck-closed fault at this node and diagnose")
	flag.Parse()
	if *levels < 0 || *tdrs < 0 {
		log.Fatalf("-levels and -tdrs must not be negative, got %d and %d", *levels, *tdrs)
	}

	net, err := rsn.RandomNetwork("cli", *levels, *tdrs, *seed)
	if err != nil {
		log.Fatal(err)
	}
	net.Reset()
	fmt.Printf("network:\n%s", net.String())
	fmt.Printf("reset path length: %d cells\n", net.PathLength())

	seq, err := rsn.GenerateTest(net)
	if err != nil {
		log.Fatal(err)
	}
	covered, total := 0, 0
	for _, cand := range rsn.AllFaults(net) {
		total++
		dut := net.Clone()
		if err := dut.InjectFault(cand.Node, cand.Fault); err != nil {
			log.Fatal(err)
		}
		if step, _ := rsn.ApplyTest(dut, seq); step != -1 {
			covered++
		}
	}
	fmt.Printf("structural test: %d CSUs, %d shifted bits, fault coverage %d/%d (%.1f%%)\n",
		len(seq.Steps), seq.BitCount(), covered, total, 100*float64(covered)/float64(total))

	if *diagnose != "" {
		dut := net.Clone()
		if err := dut.InjectFault(*diagnose, rsn.Fault{Kind: rsn.SIBStuckClosed}); err != nil {
			log.Fatal(err)
		}
		dut.Reset()
		rsn.ApplySignatures(dut)
		var outs [][]bool
		for _, st := range seq.Steps {
			o, err := dut.CSU(st.In)
			if err != nil {
				log.Fatal(err)
			}
			outs = append(outs, o)
		}
		matches := rsn.Diagnose(net, seq, func(step int, in []bool) []bool { return outs[step] })
		fmt.Printf("diagnosis candidates for stuck-closed %s: %v\n", *diagnose, matches)
	}
}
