// Wide-path differential and determinism tests: a Session fed full
// 256-pattern chunks routes them through the wide-block kernels, and
// everything observable — Status, DetectedBy, Coverage, and the exact
// Report and detection order — must match the word-path oracles and the
// pinned digest. Lives in the external package for
// atpg.ScanView (see differential_test.go).
package faultsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
)

// TestWideSessionMatchesRunFullOnRegistry feeds every registry circuit
// enough patterns to engage the wide path (320 = one 256 chunk + one
// word tail) and checks Status/DetectedBy/Coverage against the
// full-pass reference engine. GateEvals is excluded: the wide path
// spends cone words on faults the 64-block path would already have
// dropped within the chunk.
func TestWideSessionMatchesRunFullOnRegistry(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combView(t, name)
		faults := fault.AllStuckAt(n)
		pats := faultsim.RandomPatterns(n, 320, 23)
		full, err := faultsim.RunFull(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: full: %v", name, err)
		}
		s, err := faultsim.NewSession(n, faults)
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		if _, err := s.Simulate(pats); err != nil {
			t.Fatalf("%s: simulate: %v", name, err)
		}
		rep := s.Report()
		for fi := range faults {
			if rep.Status[fi] != full.Status[fi] {
				t.Errorf("%s: fault %s: wide status %v != full-pass %v",
					name, faults[fi].Describe(n), rep.Status[fi], full.Status[fi])
			}
			if rep.DetectedBy[fi] != full.DetectedBy[fi] {
				t.Errorf("%s: fault %s: wide DetectedBy %d != full-pass %d",
					name, faults[fi].Describe(n), rep.DetectedBy[fi], full.DetectedBy[fi])
			}
		}
		if rep.Coverage() != full.Coverage() {
			t.Errorf("%s: coverage mismatch: wide %+v != full-pass %+v",
				name, rep.Coverage(), full.Coverage())
		}
	}
}

// seedWideSessionDigest pins the session's wide path over the whole
// registry: per-call detection lists and costs and the final report. Any
// drift in what a wide chunk detects, in which order it reports it, or
// in what it charges changes it.
const seedWideSessionDigest = "4b8347a95e9b54b63beef11a3b6fae20d996f30314f98b9ee0d1abd231ad8286"

// TestWideSessionMatchesSeedDigest simulates 512 random patterns on a
// fresh session per registry circuit as a 384-pattern call (one wide
// chunk and a word tail) and a 128-pattern call (word path only), and
// hashes each call's Detected list and GateEvals, then the Report's
// Status, DetectedBy and GateEvals.
func TestWideSessionMatchesSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		n := combView(t, name)
		faults := fault.AllStuckAt(n)
		pats := faultsim.RandomPatterns(n, 512, 7)
		s, err := faultsim.NewSession(n, faults)
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		fmt.Fprintf(h, "circuit %s\n", name)
		for _, call := range [][2]int{{0, 384}, {384, 512}} {
			sr, err := s.Simulate(pats[call[0]:call[1]])
			if err != nil {
				t.Fatalf("%s: simulate: %v", name, err)
			}
			fmt.Fprintf(h, "call %v %d\n", sr.Detected, sr.GateEvals)
		}
		rep := s.Report()
		fmt.Fprintf(h, "report %v %v %d\n", rep.Status, rep.DetectedBy, rep.GateEvals)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedWideSessionDigest {
		t.Errorf("wide-session digest = %s, want %s", got, seedWideSessionDigest)
	}
}

// TestWideSessionChunkingMatchesWordPath pins the wide path against the
// session's own word path: the same 256 patterns simulated as one wide
// chunk and as four 64-blocks (via two 128-pattern calls, which stay on
// the word path) must agree on Status and DetectedBy.
func TestWideSessionChunkingMatchesWordPath(t *testing.T) {
	n := combView(t, "mul8")
	faults := fault.AllStuckAt(n)
	pats := faultsim.RandomPatterns(n, 256, 41)
	wide, err := faultsim.NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Simulate(pats); err != nil {
		t.Fatal(err)
	}
	word, err := faultsim.NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := word.Simulate(pats[:128]); err != nil {
		t.Fatal(err)
	}
	if _, err := word.Simulate(pats[128:]); err != nil {
		t.Fatal(err)
	}
	wr, sr := wide.Report(), word.Report()
	for fi := range faults {
		if wr.Status[fi] != sr.Status[fi] || wr.DetectedBy[fi] != sr.DetectedBy[fi] {
			t.Errorf("fault %s: wide %v/%d != word %v/%d", faults[fi].Describe(n),
				wr.Status[fi], wr.DetectedBy[fi], sr.Status[fi], sr.DetectedBy[fi])
		}
	}
}
