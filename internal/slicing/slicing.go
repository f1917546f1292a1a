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
	// ActualGateEvals is the dynamic-slice cost of a pattern-by-pattern
	// campaign: each injection counts the gates an event-driven faulty
	// pass evaluates for that one pattern, up to the first primary
	// output that differs. It is the per-pattern cost the E12 speedup
	// compares against, not the number of word evaluations the
	// multi-slot sweep performs. BaselineGateEvals is the cost of the
	// naive full-pass campaign over the same faults and patterns.
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
// propagation. On fully known patterns its detection verdicts equal
// faultsim.Run's. An output that is X in one machine and 0 or 1 in the
// other counts as a detection here and not in faultsim.Run, so X-laden
// patterns can detect more. Inputs past the end of a short vector read X
// in that pattern, whatever the patterns before it held, as in
// faultsim.Run.
func AcceleratedRun(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) (*Result, error) {
	return AcceleratedRunPacked(n, faults, sim.PackPatterns(len(n.Inputs), patterns))
}

// AcceleratedRunPacked is AcceleratedRun over a packed pattern set,
// whose width must be the circuit's input count.
//
// The good machine runs one packed pass per 64-pattern block. Each live
// fault is then injected into the block's activated pattern slots
// through a word-valued event-driven overlay (see overlay.run), which
// reports the first detecting slot and the ledger of a walk that
// injects the fault pattern by pattern, in order, and stops at its
// first detection. A stuck-at whose site lies outside the circuit is an
// error, reported before any simulation.
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
		ov.faulty.AlignTo(good)
		blockMask := pats.Mask(b)
		// The ledger is that of walking each fault's block patterns in
		// order, injecting only where it is activated and stopping at
		// its first detection: the walk reaches every slot up to the
		// first detecting one, or the whole block.
		kept := live[:0]
		for _, fi := range live {
			f := &faults[fi]
			site := f.Gate
			if f.Pin >= 0 {
				site = int(ov.c.Fanin(f.Gate)[f.Pin])
			}
			act := activated(good.Word(site), f.Value) & blockMask
			first := ov.run(sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, act)
			walked := blockMask
			if first < 64 {
				walked = ^uint64(0) >> (63 - first)
			}
			res.Injections += int64(bits.OnesCount64(act & walked))
			res.Skipped += int64(bits.OnesCount64(walked &^ act))
			if first < 64 {
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

// overlay is slicing's event-driven faulty machine: a packed machine
// (faulty) that equals the good one outside a pass, into which one
// stuck-at is injected in a set of live pattern slots at once. A pass
// evaluates only the gates with a fanin that changed in a live slot.
// Queued gates wait in one bucket per level, laid out in queue at
// levelOff[l] with qlen[l] entries, and drain in level order; a bucket
// fills in the compiled fanout arena's order, which is
// netlist.Gate.Fanout order. pending[id] holds the live slots in which a
// fanin of gate id changed, and is nonzero exactly while id is queued;
// touched[:ntouched] lists the queued gates, so restore undoes a pass
// without walking its levels.
//
// Values are compared as four-valued words, so a change between X and
// 0 or 1 counts as a change, and an X on an output as a detection.
type overlay struct {
	c        *sim.Compiled
	good     *sim.Packed
	faulty   *sim.Packed
	pending  []uint64
	level    []int32
	levelOff []int32
	qlen     []int32
	queue    []int32
	touched  []int32
	ntouched int
	isOutput []bool
	evals    int64 // the per-pattern dynamic-slice ledger
}

func newOverlay(n *netlist.Netlist, good *sim.Packed) *overlay {
	c := good.Compiled()
	ng := c.NumGates()
	o := &overlay{
		c: c, good: good, faulty: c.NewPacked(),
		pending:  make([]uint64, ng),
		level:    make([]int32, ng),
		levelOff: make([]int32, n.MaxLevel()+2),
		qlen:     make([]int32, n.MaxLevel()+1),
		queue:    make([]int32, ng),
		touched:  make([]int32, ng),
		isOutput: make([]bool, ng),
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

// run injects f into the activated slots act of the current block and
// returns the lowest slot in which a primary output differs, 64 if
// none. It adds to o.evals what walking act one slot at a time costs,
// up to and including that slot.
//
// The probe walks the lowest activated slot alone, which detects most
// detectable faults. Only if it detects nothing does one sweep inject
// the remaining slots at once. A walk that detects nothing evaluates
// exactly the gates with a fanin changed in its slot (plus a pin
// fault's own gate), so each sweep slot below the first detection
// costs the queued gates whose pending mask holds it. A detecting walk
// stops mid-bucket, so its count depends on bucket order, which a
// multi-slot pass does not keep: the sweep's first detecting slot is
// settled by walking it alone, since a pass with one live slot queues
// and evaluates exactly that slot's walk, in its order.
func (o *overlay) run(f sim.FaultSite, act uint64) uint {
	if act == 0 {
		return 64
	}
	gate := int32(f.Gate)
	probe := act & -act
	first, n := o.inject(f, probe)
	o.restore(gate, 0)
	o.evals += n
	rest := act &^ probe
	if first < 64 || rest == 0 {
		return first
	}
	first, _ = o.inject(f, rest)
	below := uint64(1)<<first - 1 // every slot when first is 64
	o.evals += o.restore(gate, rest&below)
	if f.Pin >= 0 {
		o.evals += int64(bits.OnesCount64(rest & below))
	}
	if first < 64 {
		_, n = o.inject(f, 1<<first)
		o.restore(gate, 0)
		o.evals += n
	}
	return first
}

// inject runs one pass of stuck-at f over the live slots of the aligned
// faulty machine and returns the lowest slot in which a primary output
// differs (64 if none) and the gates the pass evaluated, the faulted
// pin's gate included. Once a slot detects, every live slot at or above
// it is dropped, and the pass ends when no slot is left. Readers sit at
// strictly higher levels, so a bucket never grows while it drains. The
// machine stays unaligned until restore.
func (o *overlay) inject(f sim.FaultSite, live uint64) (first uint, evals int64) {
	gate := int32(f.Gate)
	// Outside the live slots the site keeps its good value: a pin forced
	// to the stuck value could change the gate even where the fault is
	// not activated.
	g := o.good.Word(f.Gate)
	nv := blend(o.faulty.EvalGateFaulted(f), g, live)
	if f.Pin >= 0 {
		evals++
	}
	ch := differ(nv, g)
	if ch == 0 {
		return 64, evals
	}
	o.faulty.SetWord(gate, nv)
	if o.isOutput[gate] {
		return uint(bits.TrailingZeros64(ch)), evals
	}
	lo := o.level[gate] + 1
	hi := o.enqueueFanout(gate, ch, lo-1)
	first = 64
	for l := lo; l <= hi; l++ {
		off := o.levelOff[l]
		for _, id := range o.queue[off : off+o.qlen[l]] {
			m := o.pending[id] & live
			if m == 0 {
				continue
			}
			evals++
			nv := o.faulty.EvalGate(id)
			ch := differ(nv, o.good.Word(int(id))) & m
			if ch == 0 {
				continue
			}
			o.faulty.SetWord(id, nv)
			if !o.isOutput[id] {
				hi = o.enqueueFanout(id, ch, hi)
				continue
			}
			first = uint(bits.TrailingZeros64(ch))
			if live &= 1<<first - 1; live == 0 {
				return first, evals
			}
		}
	}
	return first, evals
}

// enqueueFanout adds the changed slots ch to the pending mask of every
// reader of gate id, queues the readers not queued yet in their level
// buckets, and returns the highest queued level seen so far.
func (o *overlay) enqueueFanout(id int32, ch uint64, hi int32) int32 {
	for _, fo := range o.c.Fanout(int(id)) {
		if o.pending[fo] == 0 {
			l := o.level[fo]
			o.queue[o.levelOff[l]+o.qlen[l]] = fo
			o.qlen[l]++
			o.touched[o.ntouched] = fo
			o.ntouched++
			hi = max(hi, l)
		}
		o.pending[fo] |= ch
	}
	return hi
}

// restore re-aligns the faulty machine after a pass injected at gate
// site, empties its buckets, and returns the evaluations the pass made
// in the keep slots walked one at a time: each queued gate counts once
// per keep slot in which a fanin changed.
func (o *overlay) restore(site int32, keep uint64) (evals int64) {
	o.faulty.SetWord(site, o.good.Word(int(site)))
	for _, id := range o.touched[:o.ntouched] {
		evals += int64(bits.OnesCount64(o.pending[id] & keep))
		o.pending[id] = 0
		o.qlen[o.level[id]] = 0
		o.faulty.SetWord(id, o.good.Word(int(id)))
	}
	o.ntouched = 0
	return evals
}

// blend takes w's value in the mask slots and g's elsewhere.
func blend(w, g logic.Word, mask uint64) logic.Word {
	return logic.Word{V0: w.V0&mask | g.V0&^mask, V1: w.V1&mask | g.V1&^mask}
}

// differ returns the slots where a and b hold different four-valued
// values; unlike logic.DiffW, X against 0 or 1 counts.
func differ(a, b logic.Word) uint64 { return (a.V0 ^ b.V0) | (a.V1 ^ b.V1) }

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
