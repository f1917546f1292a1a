// Command rescue-sca runs the side-channel verification flow: TVLA
// timing-leak assessment with a concrete byte-wise attack on the leaky
// design, verification of the constant-time repair, and the power-side
// CPA experiment with and without masking.
//
// Usage:
//
//	rescue-sca -secret 4be7129a -traces 2000
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"

	"rescue/internal/sca"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-sca: ")
	secretHex := flag.String("secret", "4be7129a", "secret bytes (hex)")
	traces := flag.Int("traces", 2000, "power traces for CPA")
	keyByte := flag.Int("key", 0xA7, "secret key byte for CPA")
	seed := flag.Int64("seed", 1, "PRNG seed")
	flag.Parse()
	if *traces < 2 {
		// One trace has no variance: CPA would rank every key guess equal.
		log.Fatalf("-traces must be at least 2, got %d", *traces)
	}
	if *keyByte < 0 || *keyByte > 255 {
		log.Fatalf("-key must be a byte value, 0 to 255, got %d", *keyByte)
	}

	secret, err := hex.DecodeString(*secretHex)
	if err != nil || len(secret) == 0 {
		log.Fatalf("bad -secret: %v", err)
	}

	fmt.Println("== timing side channel (PASCAL flow) ==")
	leaky := sca.VerifyTiming("leaky-compare", sca.NewLeakyComparer(secret, *seed), secret, *seed+1)
	fmt.Printf("leaky design:   t=%.1f leaky=%v recovered=%x\n", leaky.TValue, leaky.Leaky, leaky.Recovered)
	fixed := sca.VerifyTiming("ct-compare", sca.NewConstantTimeComparer(secret, *seed), secret, *seed+1)
	fmt.Printf("constant-time:  t=%.1f leaky=%v\n", fixed.TValue, fixed.Leaky)

	fmt.Println("== power side channel (CPA) ==")
	plain := sca.CollectTraces(sca.TraceOptions{Key: byte(*keyByte), Traces: *traces, NoiseSigma: 1.5, Seed: *seed})
	res := sca.CPA(plain, byte(*keyByte))
	fmt.Printf("unmasked: best key %#02x (true %#02x), |ρ|=%.3f, rank %d\n",
		res.BestKey, byte(*keyByte), res.BestCorr, res.TrueKeyRank)
	masked := sca.CollectTraces(sca.TraceOptions{Key: byte(*keyByte), Traces: *traces, NoiseSigma: 1.5, Masked: true, Seed: *seed})
	resM := sca.CPA(masked, byte(*keyByte))
	fmt.Printf("masked:   best key %#02x, |ρ|=%.3f, true-key rank %d (first-order secure)\n",
		resM.BestKey, resM.BestCorr, resM.TrueKeyRank)
}
