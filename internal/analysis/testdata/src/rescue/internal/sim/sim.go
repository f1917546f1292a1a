// Package sim is the hotpath fixture: its import path normalizes to
// rescue/internal/sim, so the declared kernel names (Run, RunWithFault,
// the EvalGate prefix, ...) are checked while every other function is
// not.
package sim

import (
	"fmt"

	"rescue/internal/analysis/testdata/src/rescue/internal/obs"
)

var obsEvals = obs.NewCounter("fixture_evals_total", "Gate evaluations.")

// Run is a declared kernel function; each construct below is a
// violation of the zero-overhead discipline.
func Run(values []int, widths map[int]int, s fmt.Stringer) {
	get := func(i int) int { return values[i] } // want "hotpath: closure allocation in kernel function Run"
	_ = get
	_ = widths[0]                      // want "hotpath: map access in kernel function Run"
	_ = fmt.Sprintf("%d", len(values)) // want "hotpath: fmt use in kernel function Run"
	for i := range values {
		values[i]++
		obsEvals.Inc() // want "hotpath: obs call inside a per-gate loop in kernel function Run"
	}
	_ = s.String() // want "hotpath: interface-dispatched call String in kernel function Run"
}

// RunWithFault flushes its aggregate once after the loop — the blessed
// pattern.
func RunWithFault(values []int) {
	n := 0
	for i := range values {
		values[i]++
		n++
	}
	obsEvals.Add(int64(n))
}

// EvalGateScratch exercises the map-operation checks through the
// EvalGate hot-name prefix.
func EvalGateScratch(ids []int) int {
	seen := make(map[int]bool, len(ids)) // want "hotpath: map allocation in kernel function EvalGateScratch"
	for _, id := range ids {
		seen[id] = true // want "hotpath: map access in kernel function EvalGateScratch"
	}
	delete(seen, 0) // want "hotpath: map delete in kernel function EvalGateScratch"
	n := 0
	for range seen { // want "hotpath: map iteration in kernel function EvalGateScratch"
		n++
	}
	return n
}

// result stands in for a per-call result struct whose slice fields the
// kernel checks guard against growing.
type result struct {
	Detected []int
	buckets  [][]int
}

// PackedBlock stands in for the wide simulator: a declared name matches
// a method of any receiver as it matches a function.
type PackedBlock struct{}

// Run is a declared kernel (the wide-block pass): per-call slice
// allocation and appends through escaping state are the regressions the
// zero-alloc contract exists to catch.
func (PackedBlock) Run(values []int, res *result) {
	tmp := make([]int, len(values)) // want "hotpath: slice/channel allocation in kernel function Run"
	for i, v := range values {
		tmp[i] = v * v
		res.Detected = append(res.Detected, i) // want "hotpath: append to escaping state in kernel function Run"
	}
	res.buckets[0] = append(res.buckets[0], tmp[0]) // want "hotpath: append to escaping state in kernel function Run"
}

// runConeEvalBlock is matched through the runConeEval prefix; appends to
// plain locals and indexed stores into caller-provided arenas pass.
func runConeEvalBlock(values, arena []int) int {
	n := 0
	var order []int
	for i, v := range values {
		order = append(order, i)
		arena[i] = v
		n++
	}
	return n + len(order)
}

// helper is not a declared kernel function: the same constructs pass.
func helper(widths map[int]int) []int {
	var out []int
	f := func(i int) int { return i * i }
	for i := 0; i < 4; i++ {
		out = append(out, f(i))
	}
	_ = fmt.Sprintf("%d", widths[0])
	tmp := make([]int, 4)
	return append(out, tmp...)
}
