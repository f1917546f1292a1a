package fusa

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// seedClassifyDigest pins every class Classify assigns over the output
// splits below, on every scan-viewed registry circuit, to the values of
// the 64-slot full-pass implementation. Any drift in how a split's
// functional and alarm outputs are observed changes it.
const seedClassifyDigest = "6440f7aba0a7598bd1417e01bc4bad11a33f7e1f2abefaf6de770d0ecbb4f1c5"

// xLadenPatterns returns a copy of the patterns with a seeded quarter of
// their values replaced by X. Every vector keeps its full length.
func xLadenPatterns(patterns []logic.Vector, seed int64) []logic.Vector {
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

// outputSplit is one way of dividing a circuit's gates into functional
// and alarm outputs.
type outputSplit struct {
	name string
	sc   *SafetyCircuit
}

// outputSplits returns the splits the digest covers on n: an alarm as
// the first output, the functional outputs in reverse order (with and
// without an alarm), an internal gate as a functional output, no
// functional outputs, and one gate that is both functional and alarm.
func outputSplits(n *netlist.Netlist) []outputSplit {
	outs := n.Outputs
	last := len(outs) - 1
	reversed := slices.Clone(outs)
	slices.Reverse(reversed)
	reversedHead := slices.Clone(outs[:last])
	slices.Reverse(reversedHead)
	splits := []outputSplit{
		{"alarm-first", &SafetyCircuit{N: n, FunctionalOutputs: outs[1:], AlarmOutputs: outs[:1]}},
		{"reversed", &SafetyCircuit{N: n, FunctionalOutputs: reversed}},
		{"reversed-alarm-last", &SafetyCircuit{N: n, FunctionalOutputs: reversedHead, AlarmOutputs: outs[last:]}},
		{"no-functional", &SafetyCircuit{N: n, AlarmOutputs: outs}},
		{"functional-and-alarm", &SafetyCircuit{N: n, FunctionalOutputs: outs, AlarmOutputs: outs[:1]}},
	}
	for id := range n.NumGates() {
		if n.Gate(id).Type == netlist.Input || slices.Contains(outs, id) {
			continue
		}
		internal := append([]int{id}, outs[:last]...)
		splits = append(splits, outputSplit{"internal", &SafetyCircuit{N: n, FunctionalOutputs: internal, AlarmOutputs: outs[last:]}})
		break
	}
	return splits
}

// digestClassify hashes Classify over one safety circuit into h: at each
// pattern count, random and X-laden vectors, on the collapsed and the
// uncollapsed stuck-at list, each followed by one SEU fault.
func digestClassify(t *testing.T, h hash.Hash, label string, sc *SafetyCircuit) {
	t.Helper()
	n := sc.N
	seu := fault.Fault{Kind: fault.SEU, Gate: n.NumGates() / 2, Pin: -1}
	all := fault.AllStuckAt(n)
	lists := []fault.List{
		append(fault.Collapse(n, all), seu),
		append(slices.Clone(all), seu),
	}
	for _, count := range []int{63, 65, 300, 1024} {
		pats := faultsim.RandomPatterns(n, count, int64(count))
		for pi, ps := range [][]logic.Vector{pats, xLadenPatterns(pats, int64(count))} {
			for li, faults := range lists {
				classes, err := Classify(sc, faults, ps)
				if err != nil {
					t.Fatalf("%s: Classify: %v", label, err)
				}
				fmt.Fprintf(h, "%s %d %d %d %v\n", label, count, pi, li, classes)
			}
		}
	}
}

// TestClassifyMatchesSeedDigest pins Classify byte for byte over output
// splits the registry's own outputs do not exercise: every split of
// outputSplits, plus Duplicate's synthesised safety circuit, on every
// scan-viewed registry circuit.
func TestClassifyMatchesSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		sv, err := atpg.ScanView(circuits.Registry[name]())
		if err != nil {
			t.Fatalf("%s: scan view: %v", name, err)
		}
		for _, s := range outputSplits(sv.Comb) {
			digestClassify(t, h, name+"/"+s.name, s.sc)
		}
		dup, err := Duplicate(sv.Comb)
		if err != nil {
			t.Fatalf("%s: Duplicate: %v", name, err)
		}
		digestClassify(t, h, name+"/duplicate", dup)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedClassifyDigest {
		t.Errorf("Classify digest = %s, want %s", got, seedClassifyDigest)
	}
}
