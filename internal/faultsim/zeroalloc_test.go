package faultsim

import (
	"reflect"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
)

// allocSink keeps Simulate results reachable so the compiler cannot
// elide the calls under AllocsPerRun.
var allocSink SimResult

// TestSessionSimulateZeroAlloc asserts the zero-allocation contract of
// a warm session: steady-state Simulate — word path and wide path at
// parallelism 1 — performs no heap allocations. Every per-call buffer
// (pattern staging, cone diffs, eval counts, the Detected list) is
// arena-reused; the first call pays the lazy wide-machine build, which
// the warm-up outside the measured region absorbs.
func TestSessionSimulateZeroAlloc(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	wordPats := RandomPatterns(n, 64, 3)
	widePats := RandomPatterns(n, 256, 3)
	s, err := NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths: build the wide machines and arenas, drop the
	// easily-detected faults so the measured calls hit the steady state.
	if _, err := s.Simulate(wordPats); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(widePats); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		allocSink, err = s.Simulate(wordPats)
	}); allocs != 0 {
		t.Errorf("word-path Simulate allocates %.1f objects per call, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		allocSink, err = s.Simulate(widePats)
	}); allocs != 0 {
		t.Errorf("wide-path Simulate allocates %.1f objects per call, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Reset must not disturb the arenas: post-reset calls re-detect the
	// whole fault list (the worst-case detection volume) without
	// allocating either.
	s.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		allocSink, err = s.Simulate(widePats)
	}); allocs != 0 {
		t.Errorf("post-Reset wide Simulate allocates %.1f objects per call, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomPatternsAllocsFlatInCount pins RandomPatterns' allocation
// profile: every vector is carved from one backing array, so a call
// allocates the same at 64 and at 4096 patterns.
func TestRandomPatternsAllocsFlatInCount(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(3, func() { _ = RandomPatterns(n, count, 1) })
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("RandomPatterns allocates %.0f objects at 64 patterns but %.0f at 4096", small, large)
	}
}

// TestRandomPatternsVectorsAreCapped checks that the vectors sharing one
// backing array are capped at their own length: appending to one must
// not overwrite the next.
func TestRandomPatternsVectorsAreCapped(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	pats := RandomPatterns(n, 3, 1)
	next := pats[1].Clone()
	_ = append(pats[0], logic.X)
	if !reflect.DeepEqual(pats[1], next) {
		t.Errorf("append to vector 0 changed vector 1: %v, want %v", pats[1], next)
	}
}
