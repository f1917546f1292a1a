// Package slicing is the hotpath fixture for the fault-injection
// slicing package: its import path normalizes to rescue/internal/slicing,
// so the faulty overlay's per-injection functions (inject, propagate,
// enqueueFanout, evalGate, get, goodVal) are checked while the campaign
// loop around them is not.
package slicing

// overlay stands in for the event-driven faulty machine.
type overlay struct {
	fanout [][]int
	fvals  []uint8
	isOut  []bool
}

// propagate is a declared kernel: a per-injection written-set map and a
// closure over it are the regressions the flat, epoch-stamped overlay
// exists to avoid.
func (o *overlay) propagate(seed int) bool {
	written := map[int]uint8{seed: 1} // want "hotpath: map literal in kernel function propagate"
	get := func(id int) uint8 {       // want "hotpath: closure allocation in kernel function propagate"
		if v, ok := written[id]; ok { // want "hotpath: map access in kernel function propagate"
			return v
		}
		return o.fvals[id]
	}
	for _, fo := range o.fanout[seed] {
		if o.isOut[fo] && get(fo) != 0 {
			return true
		}
	}
	return false
}

// run is the per-pattern campaign loop, not a kernel: the same closure
// passes.
func (o *overlay) run(seeds []int) int {
	detected := 0
	hit := func(id int) bool { return o.isOut[id] }
	for _, id := range seeds {
		if hit(id) {
			detected++
		}
	}
	return detected
}
