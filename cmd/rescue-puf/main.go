// Command rescue-puf analyses SRAM-PUF quality: reliability (intra-HD)
// against the analytical model, uniqueness (inter-HD), min-entropy and
// fuzzy-extractor key failure rates across temperature.
//
// Usage:
//
//	rescue-puf -tech finfet -devices 8 -temp 85
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"rescue/internal/puf"
)

// keyBits is the fuzzy extractor's key length: each key bit takes rep
// cells of one device.
const keyBits = 128

// absoluteZeroC is the lowest temperature -temp accepts, in °C.
const absoluteZeroC = -273.15

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-puf: ")
	tech := flag.String("tech", "finfet", "technology preset: finfet | planar")
	devices := flag.Int("devices", 8, "device population")
	temp := flag.Float64("temp", 25, "evaluation temperature °C")
	seed := flag.Int64("seed", 1, "manufacturing seed")
	rep := flag.Int("rep", 7, "fuzzy-extractor repetition factor")
	flag.Parse()
	if *devices < 2 {
		log.Fatalf("-devices must be at least 2 for inter-device uniqueness and the cross-device check, got %d", *devices)
	}
	if math.IsNaN(*temp) || math.IsInf(*temp, 0) || *temp < absoluteZeroC {
		log.Fatalf("-temp must be a finite temperature of at least %.2f°C, got %v", absoluteZeroC, *temp)
	}

	var model puf.Model
	switch *tech {
	case "finfet":
		model = puf.FinFET16
	case "planar":
		model = puf.Planar65
	default:
		log.Fatalf("unknown technology %q", *tech)
	}
	model.Seed = *seed
	if *rep < 1 || *rep > model.Cells/keyBits {
		log.Fatalf("-rep must be 1 to %d: a %d-bit key at that repetition must fit in %d cells, got %d",
			model.Cells/keyBits, keyBits, model.Cells, *rep)
	}

	var pop []*puf.Device
	for i := 0; i < *devices; i++ {
		pop = append(pop, model.Manufacture(i))
	}
	d0 := pop[0]
	intra := puf.IntraHD(d0, *temp, 20, 3)
	fmt.Printf("technology    %s (%d cells, σn/σm = %.3f)\n", *tech, model.Cells, model.NoiseSigma/model.MismatchSigma)
	fmt.Printf("reliability   intra-HD %.4f at %.0f°C (analytical %.4f)\n",
		intra, *temp, model.AnalyticalBER(*temp))
	fmt.Printf("uniqueness    inter-HD %.4f over %d devices (ideal 0.5)\n", puf.InterHD(pop), len(pop))
	fmt.Printf("min-entropy   %.4f bits/cell\n", puf.MinEntropyPerBit(pop))

	e := puf.Enroll(d0, keyBits, *rep, 99)
	fail := puf.KeyFailureRate(d0, e, *temp, 200, 5)
	fmt.Printf("fuzzy extractor: %d-bit key, %d-repetition, failure rate %.4f\n", keyBits, *rep, fail)
	if _, ok := puf.Reconstruct(pop[1], e, *temp, 1); ok {
		fmt.Println("WARNING: another device reconstructed the key")
	} else {
		fmt.Println("cross-device reconstruction correctly fails")
	}
}
