package atpg

import (
	"fmt"
	"math"
	"sync"

	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/obs"
)

// ATPG instrumentation. PODEM call, backtrack, implication gate-eval,
// verdict-hit and lent-worker counters are flushed once per round (or
// per classification pass), and every deterministic round — generation
// plus the sequential drop pass — records its wall-clock into the
// round-latency histogram. The call, backtrack and gate-eval counters
// count searches performed; a verdict recalled from the netlist's
// verdict table counts as a hit instead.
var (
	obsPODEMCalls   = obs.NewCounter("atpg_podem_calls_total", "Deterministic PODEM searches performed.")
	obsBacktracks   = obs.NewCounter("atpg_backtracks_total", "PODEM backtracks across all searches performed.")
	obsImplyEvals   = obs.NewCounter("atpg_imply_gate_evals_total", "Gate evaluations (both machines) performed by PODEM implication.")
	obsVerdictHits  = obs.NewCounter("atpg_verdict_hits_total", "PODEM verdicts recalled from a netlist's verdict table instead of searched.")
	obsLentWorkers  = obs.NewCounter("atpg_lent_workers_total", "Helper goroutines PODEM loops started on borrowed worker slots.")
	obsRoundSeconds = obs.NewHistogram("atpg_round_seconds", "Wall-clock of one deterministic test-and-drop round (generation + drop).", obs.DurationBuckets)
)

// ScanView converts a sequential circuit into its full-scan combinational
// view: every flip-flop Q becomes a pseudo primary input and every D pin
// a pseudo primary output. The returned mapping relates new input indices
// to original DFF indices.
type ScanViewResult struct {
	Comb *netlist.Netlist
	// PseudoInputs[i] is the index (into Comb.Inputs) of the pseudo input
	// standing in for original DFF i; PseudoOutputs[i] likewise for the
	// D-pin observation point.
	PseudoInputs  []int
	PseudoOutputs []int
}

// ScanView builds the full-scan view. Combinational circuits are returned
// unchanged (with empty mappings).
func ScanView(n *netlist.Netlist) (*ScanViewResult, error) {
	if !n.IsSequential() {
		return &ScanViewResult{Comb: n}, nil
	}
	c := netlist.New(n.Name + "_scan")
	oldToNew := make([]int, n.NumGates())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	res := &ScanViewResult{Comb: c}
	// Original inputs first, preserving order.
	for _, id := range n.Inputs {
		nid, err := c.AddInput(n.Gate(id).Name)
		if err != nil {
			return nil, err
		}
		oldToNew[id] = nid
	}
	// One pseudo input per DFF.
	for di, id := range n.DFFs {
		nid, err := c.AddInput(n.Gate(id).Name + "_scan")
		if err != nil {
			return nil, err
		}
		oldToNew[id] = nid
		res.PseudoInputs = append(res.PseudoInputs, len(c.Inputs)-1)
		_ = di
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		g := n.Gate(id)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = oldToNew[f]
			if fanin[i] < 0 {
				return nil, fmt.Errorf("atpg: scan view: fanin %q of %q not yet mapped",
					n.Gate(f).Name, g.Name)
			}
		}
		nid, err := c.AddGate(g.Name, g.Type, fanin...)
		if err != nil {
			return nil, err
		}
		oldToNew[id] = nid
	}
	for _, id := range n.Outputs {
		if err := c.MarkOutput(oldToNew[id]); err != nil {
			return nil, err
		}
	}
	// D-pin observation points become pseudo outputs. A DFF whose D is
	// driven by another DFF or a PI observes that mapped gate directly.
	// MarkOutput deduplicates (two DFFs may share a driver, or the driver
	// may already be a functional PO), so resolve the index afterwards.
	for _, id := range n.DFFs {
		d := oldToNew[n.Gate(id).Fanin[0]]
		if err := c.MarkOutput(d); err != nil {
			return nil, err
		}
		idx := -1
		for oi, o := range c.Outputs {
			if o == d {
				idx = oi
				break
			}
		}
		res.PseudoOutputs = append(res.PseudoOutputs, idx)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// Result is the outcome of a full test-generation flow.
type Result struct {
	Tests    []logic.Vector
	Status   []fault.Status // parallel to the fault list
	Coverage fault.Coverage
	// RandomDetected counts faults removed by the random-pattern phase.
	RandomDetected int
	// DropDetected counts faults removed by test-and-drop before any
	// PODEM search was spent on them: another target's vector detected
	// them while they were still queued.
	DropDetected int
	// DiscardedTests counts targets whose PODEM verdict was taken (they
	// are included in PODEMCalls) but whose vector was discarded because
	// an earlier vector of the same round already detected them.
	DiscardedTests int
	// PODEMCalls counts the deterministic phase's PODEM verdicts — the
	// figure test-and-drop exists to shrink. A verdict recalled from the
	// netlist's verdict table counts like one searched, so the figure
	// does not depend on what ran on the netlist before.
	PODEMCalls int
	// Backtracks accumulates the PODEM backtracks of those verdicts,
	// searched or recalled.
	Backtracks int
	// SimGateEvals is the exact fault-simulation cost of the flow (random
	// bootstrap, test-and-drop, compaction and final verification), in
	// gate evaluations on the shared session.
	SimGateEvals int64
}

// FlowOptions configures GenerateTests.
type FlowOptions struct {
	// RandomPatterns bootstraps the fault list with this many random
	// patterns before deterministic generation (0 disables the phase).
	RandomPatterns int
	Seed           int64
	PODEM          Options
	// Compact enables reverse-order static compaction of the test set.
	Compact bool
	// Parallelism is the deterministic-phase worker count (one PODEM
	// engine per worker): above 1 it gives the flow a private budget of
	// Parallelism-1 spare slots in place of PODEM.Spare. Results — Tests,
	// Status, Coverage, PODEMCalls, Backtracks — are byte-identical at
	// every parallelism level and budget: each round's targets are fixed
	// by fault index before generation, and dropping is applied
	// sequentially afterwards.
	Parallelism int
	// RoundSize is the number of lowest-index undetected targets each
	// deterministic round generates before its vectors are simulated and
	// dropped (0 selects DefaultRoundSize). Smaller rounds drop more
	// eagerly (fewer PODEM calls); larger rounds expose more parallelism.
	// It must be held constant for byte-identical results.
	RoundSize int
	// NoDrop disables test-and-drop: every fault left after the random
	// phase is targeted individually, as the pre-session flow did. It is
	// the reference side of the ablation benchmarks and regression tests.
	NoDrop bool
}

// DefaultRoundSize is the deterministic-round width: wide enough to keep
// a typical worker pool busy, narrow enough that dropping stays fresh.
const DefaultRoundSize = 16

// GenerateTests runs the full ATPG flow on a combinational circuit:
// random-pattern bootstrap, deterministic PODEM with test-and-drop
// (every generated vector is fault-simulated against the remaining set
// and its collateral detections dropped before the next target is
// picked), untestable-fault classification, optional static compaction,
// and a final verification pass. All fault simulation runs on one
// persistent faultsim.Session, so packed state is built exactly once.
func GenerateTests(n *netlist.Netlist, faults fault.List, opt FlowOptions) (*Result, error) {
	res := &Result{Status: make([]fault.Status, len(faults))}
	for i := range res.Status {
		res.Status[i] = fault.NotSimulated
	}
	sess, err := faultsim.NewSession(n, faults)
	if err != nil {
		return nil, err
	}

	if opt.RandomPatterns > 0 {
		pats := faultsim.RandomPatterns(n, opt.RandomPatterns, opt.Seed)
		if _, err := sess.Simulate(pats); err != nil {
			return nil, err
		}
		used := make(map[int]bool)
		for i := range faults {
			if sess.StatusOf(i) != fault.Detected {
				continue
			}
			res.Status[i] = fault.Detected
			res.RandomDetected++
			if by := sess.DetectedBy(i); !used[by] {
				used[by] = true
				res.Tests = append(res.Tests, pats[by])
			}
		}
	}

	if err := generateDeterministic(n, faults, opt, sess, res); err != nil {
		return nil, err
	}

	if opt.Compact && len(res.Tests) > 1 {
		sess.Reset()
		compacted, err := compactOnSession(sess, res.Tests)
		if err != nil {
			return nil, err
		}
		res.Tests = compacted
	}
	// Final verification pass on the same (reset) session: coverage
	// measured by fault simulation of the emitted test set.
	sess.Reset()
	if _, err := sess.Simulate(res.Tests); err != nil {
		return nil, err
	}
	for i := range faults {
		if sess.StatusOf(i) == fault.Detected {
			res.Status[i] = fault.Detected
		}
	}
	res.SimGateEvals = sess.GateEvals()
	cov := fault.Coverage{Total: len(faults)}
	for _, s := range res.Status {
		switch s {
		case fault.Detected:
			cov.Detected++
		case fault.Untestable:
			cov.Untestable++
		case fault.Aborted:
			cov.Aborted++
		}
	}
	res.Coverage = cov
	return res, nil
}

// generateDeterministic runs the deterministic PODEM phase over every
// stuck-at fault the random phase left undetected. Non-stuck-at faults
// are skipped outright (their status stays NotSimulated — the
// NotApplicable outcome, not an abort).
//
// With dropping enabled the phase proceeds in rounds: the RoundSize
// lowest-index still-undetected targets are generated — widened over
// every slot the spare budget can lend, one Engine per goroutine — and
// then dropped sequentially in fault-index order: each TestFound vector
// is filled, emitted and fault-simulated on the session, removing its
// collateral detections from every later round. A target that an
// earlier vector of its own round already detected keeps the Detected
// status and its redundant vector is discarded. Because round
// composition, generation and dropping order depend only on fault
// indices — never on worker scheduling — the result is byte-identical
// at any parallelism level and spare budget.
func generateDeterministic(n *netlist.Netlist, faults fault.List, opt FlowOptions, sess *faultsim.Session, res *Result) error {
	pending := make([]int, 0, len(faults))
	for i := range faults {
		if faults[i].Kind != fault.StuckAt {
			continue
		}
		if res.Status[i] != fault.Detected {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return nil
	}

	if opt.NoDrop {
		eng, err := NewEngine(n, opt.PODEM)
		if err != nil {
			return err
		}
		var cost searchCost
		defer cost.flush()
		for _, fi := range pending {
			g, err := safeGenerate(eng, faults[fi])
			if err != nil {
				return err
			}
			cost.add(g)
			switch g.out {
			case TestFound:
				res.Status[fi] = fault.Detected
				res.Tests = append(res.Tests, fillX(g.vec, opt.Seed+int64(fi)))
			case ProvenUntestable:
				res.Status[fi] = fault.Untestable
			case AbortedLimit:
				res.Status[fi] = fault.Aborted
			}
		}
		res.PODEMCalls, res.Backtracks = cost.calls, cost.backtracks
		return nil
	}

	roundSize := opt.RoundSize
	if roundSize <= 0 {
		roundSize = DefaultRoundSize
	}
	podem := opt.PODEM
	if opt.Parallelism > 1 {
		podem.Spare = NewSlots(opt.Parallelism - 1)
	}
	cr := &crew{n: n, opt: podem}

	round := make([]int, 0, roundSize)
	gens := make([]podemResult, roundSize)
	queue := pending
	for len(queue) > 0 {
		span := obs.StartSpan(obsRoundSeconds)
		round = round[:0]
		for len(queue) > 0 && len(round) < roundSize {
			fi := queue[0]
			queue = queue[1:]
			if sess.StatusOf(fi) == fault.Detected {
				// Dropped by a vector from an earlier round.
				res.Status[fi] = fault.Detected
				res.DropDetected++
				continue
			}
			round = append(round, fi)
		}
		if len(round) == 0 {
			return nil
		}
		lent, err := cr.run(len(round), func(e *Engine, ri int) (err error) {
			gens[ri], err = safeGenerate(e, faults[round[ri]])
			return err
		})
		if err != nil {
			return err
		}
		var cost searchCost
		for ri, fi := range round {
			g := gens[ri]
			cost.add(g)
			if sess.StatusOf(fi) == fault.Detected {
				// Dropped by an earlier vector of this same round; the
				// speculatively generated test is redundant — discard it.
				res.Status[fi] = fault.Detected
				res.DiscardedTests++
				continue
			}
			switch g.out {
			case TestFound:
				full := fillX(g.vec, opt.Seed+int64(fi))
				res.Tests = append(res.Tests, full)
				if _, err := sess.Simulate([]logic.Vector{full}); err != nil {
					return err
				}
				res.Status[fi] = fault.Detected
			case ProvenUntestable:
				res.Status[fi] = fault.Untestable
				// The fault can never be detected: stop paying for its
				// cone on every later drop-phase vector. (Reset before
				// compaction/verify restores it; statuses are unchanged.)
				sess.Exclude(fi)
			case AbortedLimit:
				res.Status[fi] = fault.Aborted
				// Never retargeted either; a collateral detection could
				// only matter in the final verify pass, which runs on a
				// reset session — so exclusion cannot change any result.
				sess.Exclude(fi)
			}
		}
		res.PODEMCalls += cost.calls
		res.Backtracks += cost.backtracks
		cost.flush()
		obsLentWorkers.Add(int64(lent))
		span.End()
	}
	return nil
}

// podemResult carries one speculative Generate outcome from a worker to
// the sequential drop pass. hit marks a verdict recalled from the
// verdict table: no search ran, so it carries no implication evals.
type podemResult struct {
	vec        logic.Vector
	out        Outcome
	backtracks int
	evals      int
	hit        bool
}

// safeGenerate takes one PODEM verdict with the campaign engine's
// per-unit recovery idiom: a panic inside Generate becomes an error
// instead of taking down the flow, identically on the calling goroutine,
// on a lent helper (where no caller's recover could catch it) and on the
// NoDrop path. Every GenerateTests round, NoDrop pass and ClassifyFaults
// chunk searches through it, so it is where the engine's verdict table
// is consulted: a stuck-at site searched before on this netlist at this
// backtrack limit is recalled, and a new verdict is stored.
func safeGenerate(e *Engine, f fault.Fault) (g podemResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("atpg: PODEM panic on %v: %v", f, r)
		}
	}()
	s := e.verdicts.slot(f)
	if g, ok := e.verdicts.recall(s); ok {
		return g, nil
	}
	vec, out := e.Generate(f)
	g = podemResult{vec: vec, out: out, backtracks: e.Backtracks(), evals: e.ImplyGateEvals()}
	e.verdicts.store(s, g)
	return g, nil
}

// searchCost sums the PODEM verdicts one pass used. Calls and backtracks
// count every verdict, searched or recalled, as the pass's reports do;
// flush hands the obs counters only the searches performed, and the
// recalls as hits.
type searchCost struct {
	calls, backtracks   int // every verdict used
	hits, hitBacktracks int // the recalled ones among them
	evals               int // implication gate evals of the searches
}

func (c *searchCost) add(g podemResult) {
	c.calls++
	c.backtracks += g.backtracks
	c.evals += g.evals
	if g.hit {
		c.hits++
		c.hitBacktracks += g.backtracks
	}
}

func (c *searchCost) merge(o searchCost) {
	c.calls += o.calls
	c.backtracks += o.backtracks
	c.hits += o.hits
	c.hitBacktracks += o.hitBacktracks
	c.evals += o.evals
}

func (c *searchCost) flush() {
	obsPODEMCalls.Add(int64(c.calls - c.hits))
	obsBacktracks.Add(int64(c.backtracks - c.hitBacktracks))
	obsImplyEvals.Add(int64(c.evals))
	obsVerdictHits.Add(int64(c.hits))
}

// verdictTable holds the PODEM verdicts of one netlist at one backtrack
// limit, as a netlist artifact, so the AddGate, AddInput and MarkOutput
// that invalidate the netlist's other artifacts drop it too. A search
// is a pure function of netlist, fault and limit, so a stored verdict —
// outcome, vector and backtrack count — is exactly what searching again
// would return. It is dense: one slot per stuck-at site and value, at
// 2·(first[g]+1+pin)+value, where first is the prefix sum of
// 1+len(Fanin) over the gates (pin -1 is the gate's output). TestFound
// vectors sit in one append-only arena, len(Inputs) values each, and are
// handed out as capped slices that no caller writes. A slot is written
// once: a concurrent duplicate search keeps the first verdict.
type verdictTable struct {
	first []int32 // slot base per gate; first[NumGates] ends the last gate
	width int     // values per vector

	mu    sync.Mutex
	slots []verdict
	arena []logic.V
}

// verdict is one stored search outcome; vec is the offset of a TestFound
// vector in the arena.
type verdict struct {
	vec        int32
	backtracks int32
	out        Outcome
	known      bool
}

func newVerdictTable(n *netlist.Netlist) *verdictTable {
	first := make([]int32, n.NumGates()+1)
	for id, g := range n.Gates {
		first[id+1] = first[id] + 1 + int32(len(g.Fanin))
	}
	return &verdictTable{
		first: first,
		width: len(n.Inputs),
		slots: make([]verdict, 2*first[n.NumGates()]),
	}
}

// slot is f's slot index, or -1 when f has none: not a stuck-at at 0 or
// 1, or a site outside the netlist, which the search itself reports.
func (t *verdictTable) slot(f fault.Fault) int {
	if f.Kind != fault.StuckAt || f.Value > logic.One || f.Gate < 0 || f.Gate >= len(t.first)-1 || f.Pin < -1 {
		return -1
	}
	site := t.first[f.Gate] + 1 + int32(f.Pin)
	if site >= t.first[f.Gate+1] {
		return -1
	}
	return 2*int(site) + int(f.Value)
}

// recall returns slot s's stored verdict, if any.
func (t *verdictTable) recall(s int) (podemResult, bool) {
	if s < 0 {
		return podemResult{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.slots[s]
	if !v.known {
		return podemResult{}, false
	}
	g := podemResult{out: v.out, backtracks: int(v.backtracks), hit: true}
	if v.out == TestFound {
		end := int(v.vec) + t.width
		g.vec = t.arena[v.vec:end:end]
	}
	return g, true
}

// store records a searched verdict in slot s unless the slot is already
// written or the verdict does not fit its int32 fields.
func (t *verdictTable) store(s int, g podemResult) {
	if s < 0 || g.backtracks > math.MaxInt32 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots[s].known || len(t.arena) > math.MaxInt32-t.width {
		return
	}
	v := verdict{backtracks: int32(g.backtracks), out: g.out, known: true}
	if g.out == TestFound {
		v.vec = int32(len(t.arena))
		t.arena = append(t.arena, g.vec...)
	}
	t.slots[s] = v
}

// fillX replaces don't-cares with deterministic pseudo-random values so
// tests are fully specified (required by the packed fault simulator's
// detection comparison and by tester hand-off).
func fillX(vec logic.Vector, seed int64) logic.Vector {
	out := vec.Clone()
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i, v := range out {
		if !v.Known() {
			state = state*2862933555777941757 + 3037000493
			out[i] = logic.FromBool(state&(1<<32) != 0)
		}
	}
	return out
}

// CompactTests performs reverse-order static compaction: patterns are
// fault-simulated in reverse insertion order with fault dropping, and any
// pattern that detects no not-yet-detected fault is discarded.
func CompactTests(n *netlist.Netlist, faults fault.List, tests []logic.Vector) ([]logic.Vector, error) {
	sess, err := faultsim.NewSession(n, faults)
	if err != nil {
		return nil, err
	}
	return compactOnSession(sess, tests)
}

// compactOnSession is the compaction kernel: the session's drop set is
// the "already covered" bookkeeping, so each pattern is simulated only
// against the faults no later-kept pattern detects. The session must be
// freshly constructed or Reset.
func compactOnSession(sess *faultsim.Session, tests []logic.Vector) ([]logic.Vector, error) {
	var kept []logic.Vector
	for i := len(tests) - 1; i >= 0; i-- {
		if sess.RemainingCount() == 0 {
			break
		}
		sr, err := sess.Simulate(tests[i : i+1])
		if err != nil {
			return nil, err
		}
		if len(sr.Detected) > 0 {
			kept = append(kept, tests[i])
		}
	}
	// Restore original relative order.
	for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
		kept[l], kept[r] = kept[r], kept[l]
	}
	return kept, nil
}

// Classification is the outcome of a PODEM testability pass over a fault
// list, with its search cost. It is the single engine-allocation path
// shared by IdentifyUntestable and fusa.CrossCheck, so untestable-fault
// classification cost is measured once and reported everywhere.
type Classification struct {
	// Outcomes is parallel to the fault list; non-stuck-at faults report
	// NotApplicable without a search.
	Outcomes []Outcome
	// Calls counts the PODEM verdicts taken (NotApplicable excluded),
	// searched or recalled from the netlist's verdict table alike.
	Calls int
	// Backtracks totals the PODEM backtracks of those verdicts — the cost
	// figure surfaced by timing outputs.
	Backtracks int
}

// classifyChunk is how many consecutive faults one goroutine of a
// classification pass searches before it claims more.
const classifyChunk = 16

// ClassifyFaults runs PODEM over every fault and returns the per-fault
// outcomes with the accumulated search cost. The list is cut into
// fixed-size chunks that the calling goroutine works through, joined by
// one helper Engine per slot it can borrow from opt.Spare. Outcomes are
// written by fault index and the costs summed after the join, so the
// result is the same with any budget. A stuck-at whose site lies
// outside the circuit is an error, reported before any search.
func ClassifyFaults(n *netlist.Netlist, faults fault.List, opt Options) (*Classification, error) {
	for i, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("atpg: fault %d: %w", i, err)
		}
	}
	c := &Classification{Outcomes: make([]Outcome, len(faults))}
	costs := make([]searchCost, (len(faults)+classifyChunk-1)/classifyChunk)
	lent, err := (&crew{n: n, opt: opt}).run(len(costs), func(e *Engine, k int) error {
		lo := k * classifyChunk
		hi := min(lo+classifyChunk, len(faults))
		for i := lo; i < hi; i++ {
			g, err := safeGenerate(e, faults[i])
			if err != nil {
				return err
			}
			c.Outcomes[i] = g.out
			if g.out != NotApplicable {
				costs[k].add(g)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total searchCost
	for _, k := range costs {
		total.merge(k)
	}
	c.Calls, c.Backtracks = total.calls, total.backtracks
	total.flush()
	obsLentWorkers.Add(int64(lent))
	return c, nil
}

// IdentifyUntestable classifies each fault as testable, untestable or
// aborted using PODEM with the given backtrack limit. This implements the
// "functionally untestable fault identification" step of Section III.A:
// excluding proven-untestable faults corrects the coverage denominator
// and removes wasted fault-simulation effort. It is a thin wrapper over
// ClassifyFaults; use that directly when the search cost matters.
func IdentifyUntestable(n *netlist.Netlist, faults fault.List, opt Options) ([]Outcome, error) {
	c, err := ClassifyFaults(n, faults, opt)
	if err != nil {
		return nil, err
	}
	return c.Outcomes, nil
}
