// Package faultsim is the hotpath fixture for the fault-simulation
// package: its import path normalizes to rescue/internal/faultsim, so
// the time-frame engine's per-cycle kernels (stepFrame, latch) are
// checked while its per-injection driver is not.
package faultsim

// timeFrames stands in for the time-frame engine's reused machine.
type timeFrames struct {
	vals, next []int
	dffs       []int
}

// stepFrame is a declared kernel: a closure per cycle is the regression
// the zero-alloc injection contract exists to catch.
func (e *timeFrames) stepFrame(cyc int) {
	get := func(id int) int { return e.vals[id] } // want "hotpath: closure allocation in kernel function stepFrame"
	for i := range e.vals {
		e.vals[i] = get(i) + cyc
	}
}

// latch writes through the engine's pre-sized buffers — the blessed
// pattern.
func (e *timeFrames) latch() {
	for i, id := range e.dffs {
		e.next[i] = e.vals[id]
	}
	for i, id := range e.dffs {
		e.vals[id] = e.next[i]
	}
}

// run is the per-injection driver, not a kernel: the same closure
// passes.
func (e *timeFrames) run(cycles int) {
	step := func(c int) { e.stepFrame(c) }
	for c := 0; c < cycles; c++ {
		step(c)
		e.latch()
	}
}
