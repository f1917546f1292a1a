// Package atpg is the hotpath fixture for the test-generation package:
// its import path normalizes to rescue/internal/atpg, so PODEM's
// per-decision functions (imply, propagate, scanFrontier, xPathExists,
// state, ...) are checked while the per-target search loop is not.
package atpg

// engine stands in for the PODEM engine's reused search state.
type engine struct {
	fanout   [][]int
	frontier []int
	isOut    []bool
}

// xPathExists is a declared kernel: a per-call visited map and a
// recursive closure are the regressions the zero-alloc decision
// contract exists to catch.
func (e *engine) xPathExists() bool {
	seen := make(map[int]bool) // want "hotpath: map allocation in kernel function xPathExists"
	var dfs func(id int) bool
	dfs = func(id int) bool { // want "hotpath: closure allocation in kernel function xPathExists"
		if e.isOut[id] {
			return true
		}
		for _, fo := range e.fanout[id] {
			if !seen[fo] && dfs(fo) { // want "hotpath: map access in kernel function xPathExists"
				return true
			}
		}
		return false
	}
	for _, g := range e.frontier {
		if dfs(g) {
			return true
		}
	}
	return false
}

// scanFrontier appends through a local view of the engine's pre-sized
// slice and stores it back — the blessed pattern.
func (e *engine) scanFrontier(ids []int) {
	fr := e.frontier[:0]
	for _, id := range ids {
		if e.isOut[id] {
			fr = append(fr, id)
		}
	}
	e.frontier = fr
}

// generate is the per-target search loop, not a kernel: the same closure
// passes.
func (e *engine) generate(targets []int) int {
	found := 0
	try := func(id int) bool { return e.isOut[id] }
	for _, id := range targets {
		if try(id) {
			found++
		}
	}
	return found
}
