// Package atpg implements automatic test pattern generation for stuck-at
// faults: the PODEM algorithm with SCOAP-guided backtrace, a random-
// pattern bootstrap phase, functionally-untestable fault identification
// (Section III.A of the RESCUE paper) and static test-set compaction.
// Sequential circuits are handled through a full-scan view in which every
// flip-flop becomes a pseudo input/output pair.
package atpg

import (
	"fmt"
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
// Implication is event-driven: gv/fv stay consistent with piVal for a
// whole Generate call. The first imply of a target is one full
// RunDualWithFault pass; after that every piVal write goes through setPI,
// which records the input as dirty, and imply re-evaluates only the
// fanout of the dirty inputs whose values changed, level by level.
type Engine struct {
	n       *netlist.Netlist
	c       *sim.Compiled // shared compiled machine driving imply
	cc      *Controllability
	gv      []logic.V // good-machine values
	fv      []logic.V // faulty-machine values
	scratch []logic.V // fanin gather buffer for pin-fault evaluation
	piVal   []logic.V // current PI assignment, indexed like n.Inputs
	piOf    []int32   // gate ID -> PI index, -1 for non-inputs
	outBits []uint64  // PO membership bitset over gate IDs
	level   []int32   // combinational level per gate ID

	// Event queue: one bucket per level, laid out in queue at
	// levelOff[l] with qlen[l] entries; queued dedups multi-pin fanouts.
	queue    []int32
	levelOff []int32
	qlen     []int32
	queued   []bool

	// Inputs written since the last imply; fullPass forces a full dual
	// pass (the first imply of a target).
	dirty    []int32
	ndirty   int
	piDirty  []bool
	fullPass bool

	frontier []int32  // D-frontier of the current assignment, in gate-ID order
	seen     []uint32 // xPathExists visit stamps
	epoch    uint32
	dfs      []int32 // xPathExists explicit stack
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
	e := &Engine{
		n: n, c: c, cc: cc,
		gv:       make([]logic.V, ng),
		fv:       make([]logic.V, ng),
		scratch:  c.NewValueScratch(),
		piVal:    make([]logic.V, len(n.Inputs)),
		piOf:     make([]int32, ng),
		outBits:  make([]uint64, (ng+63)/64),
		level:    make([]int32, ng),
		queue:    make([]int32, ng),
		levelOff: make([]int32, n.MaxLevel()+2),
		qlen:     make([]int32, n.MaxLevel()+1),
		queued:   make([]bool, ng),
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
		l := int32(n.Gate(id).Level)
		e.level[id] = l
		e.levelOff[l+1]++
	}
	for l := 1; l < len(e.levelOff); l++ {
		e.levelOff[l] += e.levelOff[l-1]
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

// retarget starts a search for f: every input back to X, an empty
// decision stack, and a full implication pass pending.
func (e *Engine) retarget(f fault.Fault) {
	e.target = f
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
	e.fullPass = true
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
// Generate call's implication performed, the first full pass included;
// one evaluation covers the gate in both machines.
func (e *Engine) ImplyGateEvals() int { return e.evals }

type searchState uint8

const (
	stateDetected searchState = iota
	stateConflict
	stateUndetermined
)

// imply brings gv/fv to the values of both machines under the current
// PI assignment. The first call for a target is one compiled dual pass.
// Later calls load only the dirty inputs (an input-site output fault
// keeps its forced faulty value) and propagate from those that changed.
// Values are a pure function of the assignment, so the level-ordered
// event pass reaches exactly the full pass's values, and undoing an
// assignment is just another event on that input's cone.
func (e *Engine) imply() {
	gv, fv := e.gv, e.fv
	if e.fullPass {
		for i, id := range e.n.Inputs {
			gv[id] = e.piVal[i]
			fv[id] = e.piVal[i]
		}
		e.c.RunDualWithFault(gv, fv, e.scratch, e.site)
		e.evals += e.c.ScheduleLen()
		e.fullPass = false
		return
	}
	var hi int32
	for _, pi := range e.dirty[:e.ndirty] {
		e.piDirty[pi] = false
		id := int32(e.n.Inputs[pi])
		g, f := e.piVal[pi], e.piVal[pi]
		if int(id) == e.site.Gate && e.site.Pin < 0 {
			f = e.site.SA
		}
		if g == gv[id] && f == fv[id] {
			continue
		}
		gv[id], fv[id] = g, f
		hi = e.enqueueFanout(id, hi)
	}
	e.ndirty = 0
	e.evals += e.propagate(hi)
}

// enqueueFanout queues every not-yet-queued reader of gate id in its
// level bucket and returns the highest queued level seen so far.
func (e *Engine) enqueueFanout(id, hi int32) int32 {
	for _, fo := range e.c.Fanout(int(id)) {
		if e.queued[fo] {
			continue
		}
		e.queued[fo] = true
		l := e.level[fo]
		e.queue[e.levelOff[l]+e.qlen[l]] = fo
		e.qlen[l]++
		if l > hi {
			hi = l
		}
	}
	return hi
}

// propagate drains the event queue in level order up to level hi (which
// grows as events fan out) and returns the number of gates evaluated. A
// gate's readers are queued only when its good or faulty value changed.
// Readers sit at strictly higher levels, so a bucket never grows while
// it drains.
func (e *Engine) propagate(hi int32) int {
	evals := 0
	for l := int32(1); l <= hi; l++ {
		q := e.queue[e.levelOff[l] : e.levelOff[l]+e.qlen[l]]
		e.qlen[l] = 0
		for _, id := range q {
			e.queued[id] = false
			g, f := e.c.EvalDualWithFault(id, e.gv, e.fv, e.scratch, e.site)
			evals++
			if g == e.gv[id] && f == e.fv[id] {
				continue
			}
			e.gv[id], e.fv[id] = g, f
			hi = e.enqueueFanout(id, hi)
		}
	}
	return evals
}

// state classifies the current search position. Once the fault is
// activated it scans the D-frontier into e.frontier, which objective
// then reads: one scan per decision.
func (e *Engine) state() searchState {
	// Detected: any PO differs with both values known.
	for _, o := range e.n.Outputs {
		if e.gv[o].Known() && e.fv[o].Known() && e.gv[o] != e.fv[o] {
			return stateDetected
		}
	}
	site := e.gv[e.siteNet]
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

// scanFrontier lists, in gate-ID order, the gates whose output is
// undetermined in at least one machine while some fanin already carries
// a D/D' discrepancy. For an input-pin fault the discrepancy
// materialises inside the faulted gate (the driving net itself carries
// equal values in both machines), so that gate seeds the frontier once
// the fault is activated.
func (e *Engine) scanFrontier() {
	fr := e.frontier[:0]
	pinGate := int32(-1)
	if site := e.gv[e.siteNet]; e.target.Pin >= 0 && site.Known() && site != e.target.Value {
		pinGate = int32(e.target.Gate)
	}
	for id := int32(0); id < int32(len(e.gv)); id++ {
		if e.piOf[id] >= 0 || (e.gv[id].Known() && e.fv[id].Known()) {
			continue
		}
		if id == pinGate {
			fr = append(fr, id)
			continue
		}
		for _, fi := range e.c.Fanin(int(id)) {
			if e.gv[fi].Known() && e.fv[fi].Known() && e.gv[fi] != e.fv[fi] {
				fr = append(fr, id)
				break
			}
		}
	}
	e.frontier = fr
}

// xPathExists checks whether any D-frontier gate reaches a primary output
// through gates whose value is still undetermined. One visit stamp per
// call serves every frontier gate: a gate already visited from an
// earlier frontier gate reaches no output, or the search would have
// returned.
func (e *Engine) xPathExists() bool {
	e.epoch++
	if e.epoch == 0 { // stamp wrap-around: forget every old visit
		clear(e.seen)
		e.epoch = 1
	}
	stack := e.dfs[:0]
	for _, g := range e.frontier {
		if e.seen[g] == e.epoch {
			continue
		}
		e.seen[g] = e.epoch
		stack = append(stack, g)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.outBits[id/64]&(1<<(id%64)) != 0 {
				return true
			}
			for _, fo := range e.c.Fanout(int(id)) {
				if e.seen[fo] == e.epoch || (e.gv[fo].Known() && e.fv[fo].Known()) {
					continue
				}
				e.seen[fo] = e.epoch
				stack = append(stack, fo)
			}
		}
	}
	return false
}

// objective returns the next (gate, value) goal: activate the fault if
// its site is still X, otherwise advance the cheapest D-frontier gate.
func (e *Engine) objective() (int, logic.V, bool) {
	if !e.gv[e.siteNet].Known() {
		return int(e.siteNet), logic.Not(e.target.Value), true
	}
	// The fault is activated, so state has just scanned the frontier.
	if len(e.frontier) == 0 {
		return 0, logic.X, false
	}
	// Choose the frontier gate closest to a PO (lowest remaining depth
	// approximated by highest level) and set one X input to the gate's
	// non-controlling value.
	best := e.frontier[0]
	for _, g := range e.frontier[1:] {
		if e.level[g] > e.level[best] {
			best = g
		}
	}
	g := e.n.Gate(int(best))
	nc, hasNC := nonControlling(g.Type)
	for pinIdx, fi := range g.Fanin {
		if e.gv[fi].Known() && e.fv[fi].Known() {
			continue
		}
		if g.Type == netlist.Mux && pinIdx == 0 {
			// Drive the select towards the side carrying the D.
			for dataPin, dfi := range g.Fanin[1:] {
				if e.gv[dfi].Known() && e.fv[dfi].Known() && e.gv[dfi] != e.fv[dfi] {
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
				if !e.gv[fi].Known() {
					next = fi
					break
				}
			}
			id, want = next, logic.Zero
		case netlist.Mux:
			// Prefer steering the select if unassigned.
			if !e.gv[g.Fanin[0]].Known() {
				id, want = g.Fanin[0], logic.Zero
			} else if sel, _ := e.gv[g.Fanin[0]].Bool(); sel {
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
		if e.gv[fi].Known() {
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
