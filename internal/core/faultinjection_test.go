package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rescue/internal/aging"
	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/fusa"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/slicing"
)

// seedFaultInjectionDigest pins the fault-injection stages — every
// slicing.Result field, every signal probability as float bits, the
// random pattern stream and every fusa class — over the scan-viewed
// registry to the values of the per-pattern scalar implementation. Any
// drift in the reliability or safety stage's simulation changes it.
const seedFaultInjectionDigest = "52fd73bde553e5453ec3794b80e1640945420587c54cbb30bca5b6390495633a"

// xLaden returns a copy of the patterns with a seeded quarter of their
// values replaced by X. Every vector keeps its full length.
func xLaden(patterns []logic.Vector, seed int64) []logic.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]logic.Vector, len(patterns))
	for i, p := range patterns {
		v := p.Clone()
		for j := range v {
			if rng.Intn(4) == 0 {
				v[j] = logic.X
			}
		}
		out[i] = v
	}
	return out
}

// digestFaultInjection hashes AcceleratedRun, SignalProbabilities and
// Classify over one circuit and pattern set into h.
func digestFaultInjection(t *testing.T, h hash.Hash, n *netlist.Netlist, lists []fault.List, pats []logic.Vector) {
	t.Helper()
	for li, faults := range lists {
		res, err := slicing.AcceleratedRun(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: AcceleratedRun: %v", n.Name, err)
		}
		fmt.Fprintf(h, "slicing %d %v %d %d %d %d %d %d\n", li, res.Status, res.Detected, res.Pruned,
			res.Skipped, res.Injections, res.ActualGateEvals, res.BaselineGateEvals)
		splits := [][]int{nil}
		if len(n.Outputs) > 1 {
			splits = append(splits, n.Outputs[len(n.Outputs)-1:])
		}
		for _, alarms := range splits {
			sc := &fusa.SafetyCircuit{N: n, FunctionalOutputs: n.Outputs[:len(n.Outputs)-len(alarms)], AlarmOutputs: alarms}
			classes, err := fusa.Classify(sc, faults, pats)
			if err != nil {
				t.Fatalf("%s: Classify: %v", n.Name, err)
			}
			fmt.Fprintf(h, "classify %d %d %v\n", li, len(alarms), classes)
		}
	}
	probs, err := aging.SignalProbabilities(n, pats)
	if err != nil {
		t.Fatalf("%s: SignalProbabilities: %v", n.Name, err)
	}
	for _, p := range probs {
		fmt.Fprintf(h, "%x ", math.Float64bits(p))
	}
	fmt.Fprintln(h)
}

// TestFaultInjectionMatchesSeedDigest pins the reliability and safety
// stages' fault-injection functions byte for byte: every scan-viewed
// registry circuit, pattern counts on both sides of the 64-pattern
// block boundary, random and X-laden vectors (all full length), and
// collapsed and uncollapsed stuck-at lists.
func TestFaultInjectionMatchesSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		sv, err := atpg.ScanView(circuits.Registry[name]())
		if err != nil {
			t.Fatalf("%s: scan view: %v", name, err)
		}
		n := sv.Comb
		all := fault.AllStuckAt(n)
		lists := []fault.List{fault.Collapse(n, all), all}
		for _, count := range []int{1, 63, 64, 65, 300, 2048} {
			pats := faultsim.RandomPatterns(n, count, int64(count))
			fmt.Fprintf(h, "circuit %s patterns %d %v\n", name, count, pats)
			digestFaultInjection(t, h, n, lists, pats)
			digestFaultInjection(t, h, n, lists, xLaden(pats, int64(count)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedFaultInjectionDigest {
		t.Errorf("fault-injection digest = %s, want %s", got, seedFaultInjectionDigest)
	}
}
