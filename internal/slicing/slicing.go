// Package slicing accelerates fault-injection campaigns with static and
// dynamic slicing, reproducing the RESCUE results on dynamic HDL slicing
// ([49], [51]): fault lists are pruned to the cone that can reach an
// observation point, injections are skipped when the fault is not even
// activated by the current pattern, and faulty-machine evaluation is
// bounded to the dynamic slice (the gates whose values actually change).
package slicing

import (
	"fmt"
	"math/bits"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// PruneUnobservable removes faults whose fanout cone does not intersect
// any primary output — static slicing of the fault list. It returns the
// kept faults and the indices (into the original list) of pruned ones.
func PruneUnobservable(n *netlist.Netlist, faults fault.List) (kept fault.List, prunedIdx []int) {
	observable := n.FaninCone(n.Outputs, false)
	for i, f := range faults {
		if observable[f.Gate] {
			kept = append(kept, f)
		} else {
			prunedIdx = append(prunedIdx, i)
		}
	}
	return kept, prunedIdx
}

// Result reports an accelerated campaign together with its cost ledger.
type Result struct {
	Status     []fault.Status // parallel to the input fault list
	Detected   int
	Pruned     int   // faults removed by static slicing
	Skipped    int64 // injections skipped by the activation check
	Injections int64 // faulty propagations actually performed
	// ActualGateEvals counts gate evaluations in faulty propagation
	// (the dynamic slice); BaselineGateEvals is the cost of the naive
	// full-pass campaign over the same faults and patterns.
	ActualGateEvals   int64
	BaselineGateEvals int64
}

// Speedup returns the naive-to-sliced cost ratio.
func (r *Result) Speedup() float64 {
	if r.ActualGateEvals == 0 {
		return float64(r.BaselineGateEvals)
	}
	return float64(r.BaselineGateEvals) / float64(r.ActualGateEvals)
}

// AcceleratedRun fault-simulates stuck-at faults over the patterns using
// static pruning, activation-check skipping and event-driven dynamic
// propagation. Results are equivalent to faultsim.Run's detection verdict
// on the same inputs. Inputs past the end of a short vector read X in
// that pattern, whatever the patterns before it held, as in faultsim.Run.
func AcceleratedRun(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) (*Result, error) {
	return AcceleratedRunPacked(n, faults, sim.PackPatterns(len(n.Inputs), patterns))
}

// AcceleratedRunPacked is AcceleratedRun over a packed pattern set,
// whose width must be the circuit's input count.
//
// The good machine runs one packed pass per 64-pattern block; pattern
// k's good value of a gate is slot k of that gate's word. Each activated
// (pattern, fault) pair then propagates through a scalar event-driven
// overlay on that slot. A stuck-at whose site lies outside the circuit
// is an error, reported before any simulation.
func AcceleratedRunPacked(n *netlist.Netlist, faults fault.List, pats *sim.Patterns) (*Result, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("slicing: AcceleratedRun handles combinational circuits")
	}
	for i, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("slicing: fault %d: %w", i, err)
		}
	}
	good, err := sim.NewPacked(n) // levelizes
	if err != nil {
		return nil, err
	}
	// Every fault the overlay does not detect ends Undetected: pruned,
	// never activated, and non-stuck-at faults alike. The live list holds
	// the observable stuck-ats not yet detected, in fault-index order.
	res := &Result{Status: make([]fault.Status, len(faults))}
	observable := n.FaninCone(n.Outputs, false)
	live := make([]int32, 0, len(faults))
	for i, f := range faults {
		res.Status[i] = fault.Undetected
		switch {
		case !observable[f.Gate]:
			res.Pruned++
		case f.Kind == fault.StuckAt:
			live = append(live, int32(i))
		}
	}
	res.BaselineGateEvals = int64(len(faults)) * int64(pats.Len()) * int64(n.NumGates())

	ov := newOverlay(n, good)
	for b := 0; b < pats.Blocks() && len(live) > 0; b++ {
		if err := good.LoadBlock(pats, b); err != nil {
			return nil, err
		}
		good.Run()
		blockMask := pats.Mask(b)
		// Injections never interact: each (pattern, fault) pair runs on
		// a fresh overlay epoch against the same good block. So each
		// fault walks its block's patterns in order, injecting only where
		// it is activated, and stops at its first detection: the same
		// pairs, injections and costs as a pattern-by-pattern walk.
		kept := live[:0]
		for _, fi := range live {
			f := &faults[fi]
			site := f.Gate
			if f.Pin >= 0 {
				site = int(ov.c.Fanin(f.Gate)[f.Pin])
			}
			act := activated(good.Word(site), f.Value) & blockMask
			walked, detected := blockMask, false
			for rest := act; rest != 0; rest &= rest - 1 {
				k := bits.TrailingZeros64(rest)
				res.Injections++
				if ov.inject(uint(k), int32(f.Gate), int32(f.Pin), f.Value) {
					walked, detected = ^uint64(0)>>(63-k), true
					break
				}
			}
			res.Skipped += int64(bits.OnesCount64(walked &^ act))
			if detected {
				res.Status[fi] = fault.Detected
				res.Detected++
				continue
			}
			kept = append(kept, fi)
		}
		live = kept
	}
	res.ActualGateEvals = ov.evals
	return res, nil
}

// activated returns the pattern slots where a stuck-at of value sa is
// activated: the good value at the site is known and differs from sa.
// Elsewhere the good and faulty machines are identical.
func activated(good logic.Word, sa logic.V) uint64 {
	switch sa {
	case logic.Zero:
		return good.V1
	case logic.One:
		return good.V0
	}
	return good.V0 | good.V1
}

// overlay is the event-driven faulty machine of one injection: a scalar
// value layer over one pattern slot of the packed good machine. A gate's
// faulty value lives in fvals only while its stamp equals the current
// injection's epoch; every other gate reads its good value from the
// slot. Queued gates wait in one bucket per level, laid out in queue at
// levelOff[l] with qlen[l] entries, and drain in level order. A bucket
// fills in the compiled fanout arena's order, which is
// netlist.Gate.Fanout order; since a detection stops the pass
// mid-bucket, that order decides the evaluation count.
type overlay struct {
	c        *sim.Compiled
	good     *sim.Packed
	slot     uint // pattern slot of the current injection
	fvals    []logic.V
	stamp    []int // epoch at which fvals[id] was written
	queued   []int // epoch at which id was queued
	epoch    int
	level    []int32
	levelOff []int32
	qlen     []int32
	queue    []int32
	isOutput []bool
	vals     []logic.V // fanin gather buffer
	evals    int64     // gates evaluated: the dynamic-slice cost
}

func newOverlay(n *netlist.Netlist, good *sim.Packed) *overlay {
	c := good.Compiled()
	ng := c.NumGates()
	o := &overlay{
		c: c, good: good,
		fvals:    make([]logic.V, ng),
		stamp:    make([]int, ng),
		queued:   make([]int, ng),
		level:    make([]int32, ng),
		levelOff: make([]int32, n.MaxLevel()+2),
		qlen:     make([]int32, n.MaxLevel()+1),
		queue:    make([]int32, ng),
		isOutput: make([]bool, ng),
		vals:     c.NewValueScratch(),
	}
	for id := 0; id < ng; id++ {
		l := int32(n.Gate(id).Level)
		o.level[id] = l
		o.levelOff[l+1]++
	}
	for l := 1; l < len(o.levelOff); l++ {
		o.levelOff[l] += o.levelOff[l-1]
	}
	for _, id := range n.Outputs {
		o.isOutput[id] = true
	}
	return o
}

// goodVal returns gate id's good value in the current pattern slot.
func (o *overlay) goodVal(id int32) logic.V { return o.good.Word(int(id)).Get(o.slot) }

// get returns gate id's faulty value: the overlay's when written in this
// injection, the good value otherwise.
func (o *overlay) get(id int32) logic.V {
	if o.stamp[id] == o.epoch {
		return o.fvals[id]
	}
	return o.goodVal(id)
}

// evalGate evaluates gate id over the overlay; a pin >= 0 observes sa
// instead of its driver's value.
func (o *overlay) evalGate(id, pin int32, sa logic.V) logic.V {
	fan := o.c.Fanin(int(id))
	vals := o.vals[:len(fan)]
	for i, fi := range fan {
		vals[i] = o.get(fi)
	}
	if pin >= 0 {
		vals[pin] = sa
	}
	o.evals++
	return o.c.EvalGateVals(int(id), vals)
}

// inject propagates one stuck-at activated in pattern slot — on gate's
// output, or on its input pin when pin >= 0 — and reports whether a
// primary output's faulty value differs from its good value. A pin fault
// recomputes only the faulted gate with the forced pin view, then
// propagates from it.
func (o *overlay) inject(slot uint, gate, pin int32, sa logic.V) bool {
	o.slot = slot
	o.epoch++
	nv := sa
	if pin >= 0 {
		if nv = o.evalGate(gate, pin, sa); nv == o.goodVal(gate) {
			return false
		}
	}
	o.fvals[gate], o.stamp[gate] = nv, o.epoch
	if o.isOutput[gate] {
		return true
	}
	lo := o.level[gate] + 1
	detected, hi := o.propagate(lo, o.enqueueFanout(gate, lo-1))
	for l := lo; l <= hi; l++ {
		o.qlen[l] = 0
	}
	return detected
}

// propagate drains the buckets from level lo up to hi, which grows as
// events fan out. It reports whether a primary output changed, and the
// highest level queued. Readers sit at strictly higher levels, so a
// bucket never grows while it drains, and a queued gate was never
// written in this injection.
func (o *overlay) propagate(lo, hi int32) (bool, int32) {
	for l := lo; l <= hi; l++ {
		off := o.levelOff[l]
		for _, id := range o.queue[off : off+o.qlen[l]] {
			nv := o.evalGate(id, -1, logic.X)
			if nv == o.goodVal(id) {
				continue
			}
			o.fvals[id], o.stamp[id] = nv, o.epoch
			if o.isOutput[id] {
				return true, hi
			}
			hi = o.enqueueFanout(id, hi)
		}
	}
	return false, hi
}

// enqueueFanout queues every not-yet-queued reader of gate id in its
// level bucket and returns the highest queued level seen so far.
func (o *overlay) enqueueFanout(id, hi int32) int32 {
	for _, fo := range o.c.Fanout(int(id)) {
		if o.queued[fo] == o.epoch {
			continue
		}
		o.queued[fo] = o.epoch
		l := o.level[fo]
		o.queue[o.levelOff[l]+o.qlen[l]] = fo
		o.qlen[l]++
		if l > hi {
			hi = l
		}
	}
	return hi
}

// SliceStats summarises static slice sizes per output, used by reports.
type SliceStats struct {
	Output    string
	ConeGates int
	Fraction  float64
}

// StaticSliceSizes returns the fanin-cone size for each primary output.
func StaticSliceSizes(n *netlist.Netlist) []SliceStats {
	out := make([]SliceStats, 0, len(n.Outputs))
	total := float64(n.NumGates())
	for _, o := range n.Outputs {
		cone := n.FaninCone([]int{o}, false)
		out = append(out, SliceStats{
			Output:    n.Gate(o).Name,
			ConeGates: len(cone),
			Fraction:  float64(len(cone)) / total,
		})
	}
	return out
}
