// Package atpg implements automatic test pattern generation for stuck-at
// faults: the PODEM algorithm with SCOAP-guided backtrace, a random-
// pattern bootstrap phase, functionally-untestable fault identification
// (Section III.A of the RESCUE paper) and static test-set compaction.
// Sequential circuits are handled through a full-scan view in which every
// flip-flop becomes a pseudo input/output pair.
package atpg

import (
	"fmt"
	"math/bits"
	"strconv"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// Outcome reports the result of one PODEM run.
type Outcome uint8

const (
	// TestFound means a test vector was generated.
	TestFound Outcome = iota
	// ProvenUntestable means the search space was exhausted: no input
	// assignment detects the fault (it is redundant).
	ProvenUntestable
	// AbortedLimit means the backtrack limit was hit before a verdict.
	AbortedLimit
	// NotApplicable means the fault model is outside PODEM's scope
	// (SEU/SET transients in a mixed list): no search was attempted.
	// Previously such faults were misreported as AbortedLimit, inflating
	// the aborted count and poisoning Coverage.Effective.
	NotApplicable
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case TestFound:
		return "test-found"
	case ProvenUntestable:
		return "untestable"
	case AbortedLimit:
		return "aborted"
	case NotApplicable:
		return "not-applicable"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Options configures PODEM.
type Options struct {
	// BacktrackLimit bounds the search; 0 means DefaultBacktrackLimit.
	// Searches that exhaust the space below the limit prove untestability.
	BacktrackLimit int
	// Spare, when non-nil, is a budget of idle workers that
	// ClassifyFaults and GenerateTests' deterministic rounds borrow
	// helper goroutines from. Results are identical with or without it.
	Spare *Slots
}

// DefaultBacktrackLimit is ample for the benchmark circuits in this repo.
const DefaultBacktrackLimit = 20000

// Engine generates tests for one circuit. It is not safe for concurrent
// use; create one Engine per goroutine. Generate always searches; the
// flows consult the netlist's verdict table the engine carries first.
//
// Implication is event-driven over one packed machine m that holds
// both machines in one word per gate: slot 1 is the faulty machine and
// every other slot the good one. m stays consistent with piVal for a
// whole Generate call. A search starts from every input X, where both
// machines are all X, so the first imply evaluates only the target's
// fanout cone, seeded at the fault site. After that every piVal write
// goes through setPI, which records the input as dirty, and imply
// re-evaluates only the fanout of the dirty inputs whose values changed,
// in schedule order. The queue is keyed by rank, a gate's schedule
// position, which the compiled machine stores once per netlist beside
// its fanout arena. The faulty machine can differ from the good one only
// inside the cone, so detection reads the cone's outputs alone, and the
// D-frontier check walks only the gates that carry a D, out from the
// cone's root.
type Engine struct {
	n       *netlist.Netlist
	c       *sim.Compiled // shared compiled machine driving imply
	cc      *Controllability
	cone    *netlist.Cone // the target's fanout cone, cached on n
	m       *sim.Packed   // slot 1 the faulty machine, every other slot the good one
	blank   *sim.Packed   // all X: the state retarget restores m to
	piVal   []logic.V     // current PI assignment, indexed like n.Inputs
	piOf    []int32       // gate ID -> PI index, -1 for non-inputs
	outBits []uint64      // PO membership bitset over gate IDs
	level   []int32       // combinational level per gate ID

	// Event queue: one bit per rank, a gate's position in the compiled
	// schedule (sched). Words lo..hi may hold set bits; the marks are
	// reset whenever the queue drains.
	sched   []int32 // rank -> gate ID
	pending []uint64
	lo, hi  int

	// Inputs written since the last imply.
	dirty   []int32
	ndirty  int
	piDirty []bool

	frontier []int32  // D-frontier of the current assignment, in walk order
	seen     []uint32 // scanFrontier and xPathExists visit stamps
	epoch    uint32
	dfs      []int32 // scanFrontier and xPathExists explicit stack
	stack    []frame // Generate's decision stack

	target     fault.Fault
	site       sim.FaultSite
	siteNet    int32 // line whose good value activates the target
	backtracks int
	evals      int
	limit      int

	// verdicts is the netlist's verdict table at limit, shared by every
	// engine of the netlist and limit.
	verdicts *verdictTable
}

// frame is one PODEM decision: an input assignment, and whether its
// alternative has been tried.
type frame struct {
	pi      int32
	val     logic.V
	flipped bool
}

// NewEngine builds an ATPG engine for a combinational circuit. For
// sequential circuits construct a ScanView first.
func NewEngine(n *netlist.Netlist, opt Options) (*Engine, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("atpg: sequential circuit %q: build a ScanView first", n.Name)
	}
	c, err := sim.Compile(n) // levelizes and validates acyclicity
	if err != nil {
		return nil, err
	}
	cc, err := ComputeControllability(n)
	if err != nil {
		return nil, err
	}
	ng := n.NumGates()
	sched := c.Schedule()
	words := (len(sched) + 63) / 64
	e := &Engine{
		n: n, c: c, cc: cc,
		m:        c.NewPacked(),
		blank:    c.NewPacked(),
		piVal:    make([]logic.V, len(n.Inputs)),
		piOf:     make([]int32, ng),
		outBits:  make([]uint64, (ng+63)/64),
		level:    make([]int32, ng),
		sched:    sched,
		pending:  make([]uint64, words),
		lo:       words,
		hi:       -1,
		dirty:    make([]int32, len(n.Inputs)),
		piDirty:  make([]bool, len(n.Inputs)),
		frontier: make([]int32, 0, ng),
		seen:     make([]uint32, ng),
		dfs:      make([]int32, 0, ng),
		stack:    make([]frame, 0, len(n.Inputs)),
		limit:    opt.BacktrackLimit,
	}
	if e.limit <= 0 {
		e.limit = DefaultBacktrackLimit
	}
	vt, err := n.Artifact("atpg.verdicts."+strconv.Itoa(e.limit), func() (any, error) { return newVerdictTable(n), nil })
	if err != nil {
		return nil, err
	}
	e.verdicts = vt.(*verdictTable)
	for id := range e.piOf {
		e.piOf[id] = -1
	}
	for i, id := range n.Inputs {
		e.piOf[id] = int32(i)
	}
	for _, id := range n.Outputs {
		e.outBits[id/64] |= 1 << (id % 64)
	}
	for id := 0; id < ng; id++ {
		e.level[id] = int32(n.Gate(id).Level)
	}
	return e, nil
}

// Generate runs PODEM for the fault. On TestFound the returned vector has
// one value per primary input, with X marking don't-cares. Non-stuck-at
// faults are skipped without searching and report NotApplicable.
func (e *Engine) Generate(f fault.Fault) (logic.Vector, Outcome) {
	e.backtracks, e.evals = 0, 0
	if f.Kind != fault.StuckAt {
		return nil, NotApplicable
	}
	e.retarget(f)
	for {
		e.imply()
		switch e.state() {
		case stateDetected:
			return append(logic.Vector(nil), e.piVal...), TestFound
		case stateConflict:
			if ok, why := e.backtrack(); !ok {
				return nil, why
			}
			continue
		}
		// Undetermined: pick a new objective and backtrace to a PI.
		objGate, objVal, ok := e.objective()
		if !ok {
			// No achievable objective left with current assignments.
			if okBT, why := e.backtrack(); !okBT {
				return nil, why
			}
			continue
		}
		pi, v := e.backtrace(objGate, objVal)
		if e.piVal[pi].Known() {
			// Backtrace landed on an assigned PI: heuristic dead end.
			if okBT, why := e.backtrack(); !okBT {
				return nil, why
			}
			continue
		}
		e.setPI(pi, v)
		e.stack = append(e.stack, frame{pi: int32(pi), val: v})
	}
}

// retarget starts a search for f: every input and gate back to X, an
// empty decision stack, and the fault site queued, so that the first
// imply is an event pass over f's cone. The site is the faulted gate,
// or the readers of an input site once its faulty value is forced.
func (e *Engine) retarget(f fault.Fault) {
	cone, err := e.n.FanoutConeOrdered(f.Gate)
	if err != nil {
		panic(err)
	}
	e.target, e.cone = f, cone
	e.site = sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}
	e.siteNet = int32(f.Gate)
	if f.Pin >= 0 {
		e.siteNet = e.c.Fanin(f.Gate)[f.Pin]
	}
	for i := range e.piVal {
		e.piVal[i] = logic.X
	}
	for _, pi := range e.dirty[:e.ndirty] {
		e.piDirty[pi] = false
	}
	e.ndirty = 0
	e.stack = e.stack[:0]
	e.m.AlignTo(e.blank)
	if site := int32(f.Gate); e.piOf[site] >= 0 {
		e.m.SetWord(site, logic.WordAll(logic.X).Set(faultySlot, f.Value))
		e.enqueueFanout(site)
	} else {
		e.enqueue(site)
	}
}

// setPI is the single writer of piVal after retarget: it records the
// input as dirty so the next imply re-evaluates its fanout.
func (e *Engine) setPI(pi int, v logic.V) {
	e.piVal[pi] = v
	if !e.piDirty[pi] {
		e.piDirty[pi] = true
		e.dirty[e.ndirty] = int32(pi)
		e.ndirty++
	}
}

// backtrack flips the most recent unflipped assignment; it reports
// false when the whole search space is exhausted or the limit is hit.
func (e *Engine) backtrack() (bool, Outcome) {
	for {
		if len(e.stack) == 0 {
			return false, ProvenUntestable
		}
		top := &e.stack[len(e.stack)-1]
		if !top.flipped {
			e.backtracks++
			if e.backtracks > e.limit {
				return false, AbortedLimit
			}
			top.val = logic.Not(top.val)
			top.flipped = true
			e.setPI(int(top.pi), top.val)
			return true, TestFound
		}
		e.setPI(int(top.pi), logic.X)
		e.stack = e.stack[:len(e.stack)-1]
	}
}

// Backtracks reports how many backtracks the most recent Generate call
// performed — the dominant deterministic-search cost metric, surfaced by
// the flow and cross-check timing outputs.
func (e *Engine) Backtracks() int { return e.backtracks }

// ImplyGateEvals reports how many gate evaluations the most recent
// Generate call's implication performed, the first cone pass included.
// One evaluation covers a gate in both machines.
func (e *Engine) ImplyGateEvals() int { return e.evals }

// faultySlot is the slot of m that holds the faulty machine. Slot 0,
// like every other slot, holds the good one.
const faultySlot = 1

// good returns gate id's value in the good machine.
func (e *Engine) good(id int) logic.V { return e.m.Word(id).Get(0) }

// known reports whether gate id's value is known in both machines.
func (e *Engine) known(id int) bool {
	w := e.m.Word(id)
	return w.Get(0).Known() && w.Get(faultySlot).Known()
}

// carriesD reports whether gate id carries a D or D': known in both
// machines, with different values.
func (e *Engine) carriesD(id int) bool {
	w := e.m.Word(id)
	g, f := w.Get(0), w.Get(faultySlot)
	return g.Known() && f.Known() && g != f
}

type searchState uint8

const (
	stateDetected searchState = iota
	stateConflict
	stateUndetermined
)

// imply brings m to the values of both machines under the current PI
// assignment. It loads only the dirty inputs (an input-site output fault
// keeps its forced value in the faulty slot) and propagates from those
// that changed, after the site events retarget queued for a new target.
// Values are a pure function of the assignment, so the rank-ordered
// event pass reaches exactly a full pass's values, and undoing an
// assignment is just another event on that input's cone.
func (e *Engine) imply() {
	for _, pi := range e.dirty[:e.ndirty] {
		e.piDirty[pi] = false
		id := int32(e.n.Inputs[pi])
		w := logic.WordAll(e.piVal[pi])
		if int(id) == e.site.Gate && e.site.Pin < 0 {
			w = w.Set(faultySlot, e.site.SA)
		}
		if w == e.m.Word(int(id)) {
			continue
		}
		e.m.SetWord(id, w)
		e.enqueueFanout(id)
	}
	e.ndirty = 0
	e.evals += e.propagate()
}

// enqueue queues gate id by setting its rank's bit, which a reader of
// several changed fanins may set more than once, and widens the word
// marks to cover it.
func (e *Engine) enqueue(id int32) {
	r := e.c.Rank(int(id))
	w := int(r >> 6)
	e.pending[w] |= 1 << (r & 63)
	e.lo, e.hi = min(e.lo, w), max(e.hi, w)
}

// enqueueFanout queues every reader of gate id. Its readers' ranks come
// in ascending order, so the first and last widen the word marks once.
func (e *Engine) enqueueFanout(id int32) {
	rs := e.c.ReaderRanks(int(id))
	if len(rs) == 0 {
		return
	}
	for _, r := range rs {
		e.pending[r>>6] |= 1 << (r & 63)
	}
	e.lo, e.hi = min(e.lo, int(rs[0]>>6)), max(e.hi, int(rs[len(rs)-1]>>6))
}

// propagate drains the event queue lowest rank first, between the word
// marks (hi grows as events fan out), and returns the number of gates
// evaluated. One word evaluation steps a gate in both machines; at the
// fault site's gate the faulty slot takes the faulted evaluation
// instead. A gate's readers are queued only when its word changed. A
// reader's rank is above every fanin's, so a gate is evaluated at most
// once per drain, after every fanin that changed: the same gates, as
// often, as a level-by-level drain would evaluate.
func (e *Engine) propagate() int {
	evals := 0
	site := int32(e.site.Gate)
	for w := e.lo; w <= e.hi; w++ {
		for e.pending[w] != 0 {
			b := bits.TrailingZeros64(e.pending[w])
			e.pending[w] &^= 1 << b
			id := e.sched[w<<6|b]
			evals++
			v := e.m.EvalGate(id)
			if id == site {
				v = v.Set(faultySlot, e.m.EvalGateFaulted(e.site).Get(faultySlot))
			}
			if v == e.m.Word(int(id)) {
				continue
			}
			e.m.SetWord(id, v)
			e.enqueueFanout(id)
		}
	}
	e.lo, e.hi = len(e.pending), -1
	return evals
}

// state classifies the current search position. Once the fault is
// activated it walks the D-frontier into e.frontier, which objective
// then reads: one walk per decision.
func (e *Engine) state() searchState {
	// Detected: any PO differs with both values known. Only the cone's
	// outputs can.
	for _, oi := range e.cone.Outputs {
		if e.carriesD(e.n.Outputs[oi]) {
			return stateDetected
		}
	}
	site := e.good(int(e.siteNet))
	if site.Known() && site == e.target.Value {
		return stateConflict // fault can no longer be activated
	}
	if site.Known() {
		// Activated: require a non-empty D-frontier with an X-path.
		e.scanFrontier()
		if len(e.frontier) == 0 {
			return stateConflict
		}
		if !e.xPathExists() {
			return stateConflict
		}
	}
	return stateUndetermined
}

// scanFrontier lists the D-frontier of an activated fault: the gates
// whose output is undetermined in at least one machine while some fanin
// carries a D/D' discrepancy. It walks out from the cone's root through
// the gates that carry a D, so it costs the fault's D-region, not its
// cone. Every D lies on that walk: a gate other than the root whose two
// values are known and differ has a fanin carrying a D, because with
// none the pinwise join of its two fanin vectors exists and is at least
// as defined as either, and three-valued evaluation is monotone, so
// wherever both outputs are known both equal the join's value. The root
// is exempt since its faulty value is the fault's. For an input-pin
// fault the discrepancy materialises inside the faulted gate (the
// driving net itself carries equal values in both machines), so that
// gate, the root, seeds the frontier while it is undetermined. The list
// is in walk order: objective's pick and xPathExists' answer do not
// depend on it.
func (e *Engine) scanFrontier() {
	fr, stack := e.frontier[:0], e.dfs[:0]
	ep := e.stamp()
	root := int32(e.cone.Root)
	e.seen[root] = ep
	switch {
	case e.carriesD(int(root)):
		stack = append(stack, root)
	case e.target.Pin >= 0 && !e.known(int(root)):
		fr = append(fr, root)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range e.c.Fanout(int(id)) {
			if e.seen[fo] == ep {
				continue
			}
			e.seen[fo] = ep
			switch {
			case !e.known(int(fo)):
				fr = append(fr, fo)
			case e.carriesD(int(fo)):
				stack = append(stack, fo)
			}
		}
	}
	e.frontier = fr
}

// stamp starts a new visit epoch of seen and returns it.
func (e *Engine) stamp() uint32 {
	e.epoch++
	if e.epoch == 0 { // stamp wrap-around: forget every old visit
		clear(e.seen)
		e.epoch = 1
	}
	return e.epoch
}

// xPathExists checks whether any D-frontier gate reaches a primary output
// through gates whose value is still undetermined. One visit stamp per
// call serves every frontier gate: a gate already visited from an
// earlier frontier gate reaches no output, or the search would have
// returned.
func (e *Engine) xPathExists() bool {
	ep := e.stamp()
	stack := e.dfs[:0]
	for _, g := range e.frontier {
		if e.seen[g] == ep {
			continue
		}
		e.seen[g] = ep
		stack = append(stack, g)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.outBits[id/64]&(1<<(id%64)) != 0 {
				return true
			}
			for _, fo := range e.c.Fanout(int(id)) {
				if e.seen[fo] == ep || e.known(int(fo)) {
					continue
				}
				e.seen[fo] = ep
				stack = append(stack, fo)
			}
		}
	}
	return false
}

// objective returns the next (gate, value) goal: activate the fault if
// its site is still X, otherwise advance the cheapest D-frontier gate.
func (e *Engine) objective() (int, logic.V, bool) {
	if !e.good(int(e.siteNet)).Known() {
		return int(e.siteNet), logic.Not(e.target.Value), true
	}
	// The fault is activated, so state has just scanned the frontier.
	if len(e.frontier) == 0 {
		return 0, logic.X, false
	}
	// Choose the frontier gate closest to a PO (lowest remaining depth
	// approximated by highest level, ties to the lowest gate ID) and set
	// one X input to the gate's non-controlling value.
	best := e.frontier[0]
	for _, g := range e.frontier[1:] {
		if l, lb := e.level[g], e.level[best]; l > lb || (l == lb && g < best) {
			best = g
		}
	}
	g := e.n.Gate(int(best))
	nc, hasNC := nonControlling(g.Type)
	for pinIdx, fi := range g.Fanin {
		if e.known(fi) {
			continue
		}
		if g.Type == netlist.Mux && pinIdx == 0 {
			// Drive the select towards the side carrying the D.
			for dataPin, dfi := range g.Fanin[1:] {
				if e.carriesD(dfi) {
					return fi, logic.FromBool(dataPin == 1), true
				}
			}
			return fi, logic.Zero, true
		}
		if !hasNC {
			// XOR-family: any defined value propagates; choose 0.
			return fi, logic.Zero, true
		}
		return fi, nc, true
	}
	return 0, logic.X, false
}

// nonControlling returns the non-controlling input value for a gate type,
// or ok=false for XOR-family gates that have none.
func nonControlling(t netlist.GateType) (logic.V, bool) {
	switch t {
	case netlist.And, netlist.Nand:
		return logic.One, true
	case netlist.Or, netlist.Nor:
		return logic.Zero, true
	}
	return logic.X, false
}

// backtrace walks an objective (gate, value) back to an unassigned
// primary input, choosing branches by SCOAP controllability.
func (e *Engine) backtrace(gate int, val logic.V) (pi int, v logic.V) {
	id, want := gate, val
	for {
		g := e.n.Gate(id)
		if g.Type == netlist.Input {
			return int(e.piOf[id]), want
		}
		switch g.Type {
		case netlist.Not:
			id, want = g.Fanin[0], logic.Not(want)
		case netlist.Buf:
			id = g.Fanin[0]
		case netlist.Nand, netlist.Nor:
			want = logic.Not(want)
			id = e.chooseBranch(g, want)
		case netlist.And, netlist.Or:
			id = e.chooseBranch(g, want)
		case netlist.Xor, netlist.Xnor:
			// Pick the first X input; aim for 0 on it (heuristic).
			next := g.Fanin[0]
			for _, fi := range g.Fanin {
				if !e.good(fi).Known() {
					next = fi
					break
				}
			}
			id, want = next, logic.Zero
		case netlist.Mux:
			// Prefer steering the select if unassigned.
			if sel := e.good(g.Fanin[0]); !sel.Known() {
				id, want = g.Fanin[0], logic.Zero
			} else if sel == logic.One {
				id = g.Fanin[2]
			} else {
				id = g.Fanin[1]
			}
		default:
			// DFF cannot appear in a combinational engine.
			return 0, want
		}
	}
}

// chooseBranch picks which X fanin to pursue for an AND/OR objective.
// Setting the output to the controlling-derived value needs only one
// input (choose the easiest); the non-controlling value needs all inputs
// (choose the hardest first, per the classical heuristic).
func (e *Engine) chooseBranch(g *netlist.Gate, want logic.V) int {
	ctrl := logic.Zero // controlling value of AND
	if g.Type == netlist.Or || g.Type == netlist.Nor {
		ctrl = logic.One
	}
	needOne := want == ctrl // output forced by a single controlling input
	bestID, bestCost := -1, 0
	for _, fi := range g.Fanin {
		if e.good(fi).Known() {
			continue
		}
		cost := e.cc.CC1[fi]
		if wantVal(want, ctrl) == logic.Zero {
			cost = e.cc.CC0[fi]
		}
		if bestID < 0 || (needOne && cost < bestCost) || (!needOne && cost > bestCost) {
			bestID, bestCost = fi, cost
		}
	}
	if bestID < 0 {
		bestID = g.Fanin[0]
	}
	return bestID
}

// wantVal returns the value an input must take on the chosen branch.
func wantVal(want, ctrl logic.V) logic.V {
	if want == ctrl {
		return ctrl
	}
	return logic.Not(ctrl)
}
