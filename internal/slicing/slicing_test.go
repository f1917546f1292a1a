package slicing

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// TestAcceleratedMatchesReference pins AcceleratedRun to two
// references: the whole ledger of referenceRun, which injects each
// fault pattern by pattern, and, on fully known patterns, faultsim.Run's
// detection verdicts. (Slicing counts an output that is X in one machine
// and 0 or 1 in the other as a detection, faultsim.Run only a known
// difference.) The cases cover collapsed and uncollapsed lists (pin faults), X-laden
// patterns and a partial last block, and between them must reach every
// path of overlay.run: the probe detects, the sweep detects and its
// first detecting slot is settled, or nothing detects.
func TestAcceleratedMatchesReference(t *testing.T) {
	var paths refPaths
	for _, build := range []func() *netlist.Netlist{
		circuits.C17,
		func() *netlist.Netlist { return circuits.RippleCarryAdder(8) },
		func() *netlist.Netlist { return circuits.ArrayMultiplier(4) },
		func() *netlist.Netlist { return circuits.MajorityVoter(8) },
		func() *netlist.Netlist { return circuits.ALU(8) },
		func() *netlist.Netlist {
			return circuits.RandomCombinational(circuits.RandomOptions{Inputs: 10, Gates: 300, Outputs: 8, Seed: 21})
		},
	} {
		n := build()
		xLaden := faultsim.RandomPatterns(n, 150, 5)
		rng := rand.New(rand.NewSource(17))
		for _, p := range xLaden {
			for i := range p {
				if rng.Intn(5) == 0 {
					p[i] = logic.X
				}
			}
		}
		all := fault.AllStuckAt(n)
		for _, c := range []struct {
			name   string
			faults fault.List
			pats   []logic.Vector
			known  bool
		}{
			{"collapsed", fault.Collapse(n, all), faultsim.RandomPatterns(n, 100, 13), true},
			{"uncollapsed", all, faultsim.RandomPatterns(n, 100, 13), true},
			{"collapsed/X", fault.Collapse(n, all), xLaden, false},
			{"uncollapsed/X", all, xLaden, false},
		} {
			acc, err := AcceleratedRun(n, c.faults, c.pats)
			if err != nil {
				t.Fatal(err)
			}
			if c.known {
				ref, err := faultsim.Run(n, c.faults, c.pats)
				if err != nil {
					t.Fatal(err)
				}
				for i := range c.faults {
					refDet := ref.Status[i] == fault.Detected
					accDet := acc.Status[i] == fault.Detected
					if refDet != accDet {
						t.Errorf("%s %s: fault %s: reference detected=%v, sliced detected=%v",
							n.Name, c.name, c.faults[i].Describe(n), refDet, accDet)
					}
				}
			}
			walk := referenceRun(t, n, c.faults, c.pats, &paths)
			if !reflect.DeepEqual(acc, walk) {
				t.Errorf("%s %s: ledger differs from the pattern-by-pattern walk:\n got %+v\nwant %+v",
					n.Name, c.name, ledger(acc), ledger(walk))
			}
		}
	}
	t.Logf("paths over (fault, block) pairs: %+v", paths)
	if paths.probe == 0 || paths.settled == 0 || paths.undetected == 0 {
		t.Errorf("a path of overlay.run never ran: %+v", paths)
	}
}

// ledger drops a Result's status list, for readable failure messages.
func ledger(r *Result) Result {
	l := *r
	l.Status = nil
	return l
}

// refPaths counts the (fault, block) pairs with an activated slot by the
// path overlay.run takes for them.
type refPaths struct {
	probe      int // the lowest activated slot detects
	settled    int // a later activated slot detects
	undetected int // no activated slot detects
}

// referenceRun is AcceleratedRunPacked as it was before the multi-slot
// overlay: each fault walks its block's activated slots in order through
// a scalar overlay, one injection per slot, and stops at its first
// detection. It counts in paths which overlay.run path each walk
// corresponds to.
func referenceRun(t *testing.T, n *netlist.Netlist, faults fault.List, patterns []logic.Vector, paths *refPaths) *Result {
	t.Helper()
	pats := sim.PackPatterns(len(n.Inputs), patterns)
	good, err := sim.NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Status: make([]fault.Status, len(faults))}
	observable := n.FaninCone(n.Outputs, false)
	var live []int32
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

	ov := newRefOverlay(n, good)
	for b := 0; b < pats.Blocks() && len(live) > 0; b++ {
		if err := good.LoadBlock(pats, b); err != nil {
			t.Fatal(err)
		}
		good.Run()
		blockMask := pats.Mask(b)
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
					if rest == act {
						paths.probe++
					} else {
						paths.settled++
					}
					break
				}
			}
			res.Skipped += int64(bits.OnesCount64(walked &^ act))
			if detected {
				res.Status[fi] = fault.Detected
				res.Detected++
				continue
			}
			if act != 0 {
				paths.undetected++
			}
			kept = append(kept, fi)
		}
		live = kept
	}
	res.ActualGateEvals = ov.evals
	return res
}

// refOverlay is referenceRun's event-driven faulty machine of one
// injection: a scalar value layer over one pattern slot of the packed
// good machine. A gate's faulty value lives in fvals only while its
// stamp equals the current injection's epoch; every other gate reads
// its good value from the slot. Queued gates wait in one bucket per
// level and drain in level order, each bucket in fanout order, and a
// detection stops the pass mid-bucket.
type refOverlay struct {
	n        *netlist.Netlist
	c        *sim.Compiled
	good     *sim.Packed
	slot     uint
	fvals    []logic.V
	stamp    []int
	queued   []int
	epoch    int
	levelOff []int32
	qlen     []int32
	queue    []int32
	isOutput []bool
	vals     []logic.V
	evals    int64
}

func newRefOverlay(n *netlist.Netlist, good *sim.Packed) *refOverlay {
	c := good.Compiled()
	ng := c.NumGates()
	o := &refOverlay{
		n: n, c: c, good: good,
		fvals:    make([]logic.V, ng),
		stamp:    make([]int, ng),
		queued:   make([]int, ng),
		levelOff: make([]int32, n.MaxLevel()+2),
		qlen:     make([]int32, n.MaxLevel()+1),
		queue:    make([]int32, ng),
		isOutput: make([]bool, ng),
	}
	maxFanin := 0
	for id := 0; id < ng; id++ {
		o.levelOff[n.Gate(id).Level+1]++
		maxFanin = max(maxFanin, len(n.Gate(id).Fanin))
	}
	o.vals = make([]logic.V, maxFanin)
	for l := 1; l < len(o.levelOff); l++ {
		o.levelOff[l] += o.levelOff[l-1]
	}
	for _, id := range n.Outputs {
		o.isOutput[id] = true
	}
	return o
}

func (o *refOverlay) level(id int32) int32 { return int32(o.n.Gate(int(id)).Level) }

func (o *refOverlay) goodVal(id int32) logic.V { return o.good.Word(int(id)).Get(o.slot) }

func (o *refOverlay) get(id int32) logic.V {
	if o.stamp[id] == o.epoch {
		return o.fvals[id]
	}
	return o.goodVal(id)
}

// evalGate evaluates gate id over the overlay; a pin >= 0 observes sa
// instead of its driver's value.
func (o *refOverlay) evalGate(id, pin int32, sa logic.V) logic.V {
	fan := o.c.Fanin(int(id))
	vals := o.vals[:len(fan)]
	for i, fi := range fan {
		vals[i] = o.get(fi)
	}
	if pin >= 0 {
		vals[pin] = sa
	}
	o.evals++
	return evalScalar(o.n.Gate(int(id)).Type, vals)
}

// evalScalar evaluates a combinational gate of type t from its gathered
// fanin values, folding from the first as the compiled evaluators do.
func evalScalar(t netlist.GateType, vals []logic.V) logic.V {
	switch t {
	case netlist.Buf:
		return logic.Buf(vals[0])
	case netlist.Not:
		return logic.Not(vals[0])
	case netlist.Mux:
		return logic.Mux(vals[0], vals[1], vals[2])
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		switch t {
		case netlist.And, netlist.Nand:
			acc = logic.And(acc, v)
		case netlist.Or, netlist.Nor:
			acc = logic.Or(acc, v)
		case netlist.Xor, netlist.Xnor:
			acc = logic.Xor(acc, v)
		}
	}
	if t == netlist.Nand || t == netlist.Nor || t == netlist.Xnor {
		acc = logic.Not(acc)
	}
	return acc
}

// inject propagates one stuck-at activated in pattern slot and reports
// whether a primary output's faulty value differs from its good value.
func (o *refOverlay) inject(slot uint, gate, pin int32, sa logic.V) bool {
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
	lo := o.level(gate) + 1
	detected, hi := o.propagate(lo, o.enqueueFanout(gate, lo-1))
	for l := lo; l <= hi; l++ {
		o.qlen[l] = 0
	}
	return detected
}

func (o *refOverlay) propagate(lo, hi int32) (bool, int32) {
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

func (o *refOverlay) enqueueFanout(id, hi int32) int32 {
	for _, fo := range o.c.Fanout(int(id)) {
		if o.queued[fo] == o.epoch {
			continue
		}
		o.queued[fo] = o.epoch
		l := o.level(fo)
		o.queue[o.levelOff[l]+o.qlen[l]] = fo
		o.qlen[l]++
		hi = max(hi, l)
	}
	return hi
}

func TestSpeedupIsSubstantial(t *testing.T) {
	// The E12 claim: sliced injection must beat naive full-pass cost.
	n := circuits.RandomCombinational(circuits.RandomOptions{Inputs: 16, Gates: 1500, Outputs: 8, Seed: 5})
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 50, 3)
	acc, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Speedup() < 5 {
		t.Errorf("speedup = %.1fx, want >= 5x (actual evals %d vs baseline %d)",
			acc.Speedup(), acc.ActualGateEvals, acc.BaselineGateEvals)
	}
	if acc.Skipped == 0 {
		t.Error("activation check should skip some injections")
	}
}

func TestPruneUnobservable(t *testing.T) {
	n := netlist.New("dangling")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	y, _ := n.AddGate("y", netlist.And, a, b)
	z, _ := n.AddGate("z", netlist.Or, a, b) // never observed
	_ = n.MarkOutput(y)
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: z, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: z, Pin: -1, Value: logic.One},
	}
	kept, pruned := PruneUnobservable(n, faults)
	if len(kept) != 1 || len(pruned) != 2 {
		t.Fatalf("kept=%d pruned=%d, want 1/2", len(kept), len(pruned))
	}
	if kept[0].Gate != y {
		t.Error("wrong fault kept")
	}
	// The accelerated campaign must also count them as pruned and never
	// detect them.
	res, err := AcceleratedRun(n, faults, faultsim.RandomPatterns(n, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 2 {
		t.Errorf("campaign pruned = %d, want 2", res.Pruned)
	}
	if res.Status[1] == fault.Detected || res.Status[2] == fault.Detected {
		t.Error("pruned faults must stay undetected")
	}
}

func TestAcceleratedRejectsSequential(t *testing.T) {
	if _, err := AcceleratedRun(circuits.S27(), nil, nil); err == nil {
		t.Error("sequential circuits must be rejected")
	}
}

func TestStaticSliceSizes(t *testing.T) {
	n := circuits.C17()
	stats := StaticSliceSizes(n)
	if len(stats) != 2 {
		t.Fatalf("stats count = %d", len(stats))
	}
	for _, s := range stats {
		if s.ConeGates <= 0 || s.Fraction <= 0 || s.Fraction > 1 {
			t.Errorf("bad slice stats %+v", s)
		}
	}
	// In c17 both output cones are strictly smaller than the circuit.
	for _, s := range stats {
		if s.Fraction >= 1 {
			t.Errorf("cone of %s covers whole circuit", s.Output)
		}
	}
}

func TestSkipAccounting(t *testing.T) {
	// A constant-0 net: s-a-0 there is never activated, so every pattern
	// adds to Skipped.
	n := netlist.New("const")
	a, _ := n.AddInput("a")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na) // constant 0
	y, _ := n.AddGate("y", netlist.Or, c, a)
	_ = n.MarkOutput(y)
	faults := fault.List{{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero}}
	pats := faultsim.RandomPatterns(n, 10, 2)
	res, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 10 {
		t.Errorf("skipped = %d, want 10", res.Skipped)
	}
	if res.Injections != 0 {
		t.Errorf("injections = %d, want 0", res.Injections)
	}
	if res.Status[0] != fault.Undetected {
		t.Errorf("status = %v", res.Status[0])
	}
}

func TestDetectedFaultsAreDropped(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 64, 9)
	res, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	// With dropping, total injections must be far below faults×patterns.
	if res.Injections >= int64(len(faults))*int64(len(pats)) {
		t.Errorf("no dropping evident: %d injections", res.Injections)
	}
	if res.Detected == 0 {
		t.Error("some faults must be detected")
	}
}

// TestAcceleratedRunRejectsBadSites is the regression test for stuck-ats
// outside the circuit: an unknown gate was silently counted as pruned
// and an out-of-range pin panicked. Both must be errors.
func TestAcceleratedRunRejectsBadSites(t *testing.T) {
	n := circuits.C17()
	pats := faultsim.RandomPatterns(n, 8, 1)
	out := n.Outputs[0]
	for _, bad := range []fault.Fault{
		{Kind: fault.StuckAt, Gate: -1, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: 999, Pin: -1, Value: logic.One},
		{Kind: fault.StuckAt, Gate: out, Pin: len(n.Gate(out).Fanin), Value: logic.Zero},
	} {
		if res, err := AcceleratedRun(n, fault.List{bad}, pats); err == nil {
			t.Errorf("AcceleratedRun(%+v) = %+v, want an error", bad, res)
		}
	}
}

// TestShortVectorsReadX is the regression test for short vectors reading
// the previous pattern's inputs: an input past a vector's end reads X in
// that pattern, so a short vector runs exactly as its X-padded copy and
// reversing the pattern list leaves every verdict unchanged.
func TestShortVectorsReadX(t *testing.T) {
	n := circuits.C17()
	faults := fault.AllStuckAt(n)
	ones := logic.Vector{logic.One, logic.One, logic.One, logic.One, logic.One}
	short := logic.Vector{logic.Zero, logic.Zero}
	padded := logic.Vector{logic.Zero, logic.Zero, logic.X, logic.X, logic.X}
	run := func(pats ...logic.Vector) *Result {
		t.Helper()
		res, err := AcceleratedRun(n, faults, pats)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fwd := run(ones, short)
	if want := run(ones, padded); !reflect.DeepEqual(fwd, want) {
		t.Errorf("short vector result %+v, want the X-padded %+v", fwd, want)
	}
	if rev := run(short, ones); !reflect.DeepEqual(fwd.Status, rev.Status) {
		t.Errorf("reversed patterns changed the verdicts:\n%v\n%v", fwd.Status, rev.Status)
	}
}

// TestAcceleratedRunAllocsFlatInPatterns pins the packed good machine's
// allocation profile: a run allocates the same at 64 and at 4096
// patterns, from vectors (packed once per call) or from a generated
// packed set. Input 0 is held at X, so its stuck-ats are never activated
// and stay live through every block.
func TestAcceleratedRunAllocsFlatInPatterns(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	allocs := func(count int) (vectors, packed float64) {
		pats := faultsim.RandomPatterns(n, count, 1)
		for _, p := range pats {
			p[0] = logic.X
		}
		set := faultsim.RandomPackedPatterns(n, count, 1)
		for b := range set.Blocks() {
			set.Block(b)[0] = logic.Word{}
		}
		vectors = testing.AllocsPerRun(3, func() {
			if _, err := AcceleratedRun(n, faults, pats); err != nil {
				t.Fatal(err)
			}
		})
		packed = testing.AllocsPerRun(3, func() {
			if _, err := AcceleratedRunPacked(n, faults, set); err != nil {
				t.Fatal(err)
			}
		})
		return vectors, packed
	}
	smallV, smallP := allocs(64)
	largeV, largeP := allocs(4096)
	if smallV != largeV {
		t.Errorf("AcceleratedRun allocates %.0f objects at 64 patterns but %.0f at 4096", smallV, largeV)
	}
	if smallP != largeP {
		t.Errorf("AcceleratedRunPacked allocates %.0f objects at 64 patterns but %.0f at 4096", smallP, largeP)
	}
}
