// Package faultsim implements fault simulation over netlists: a
// parallel-pattern single-fault-propagation (PPSFP) engine for permanent
// stuck-at faults, a compiled time-frame engine for sequential stuck-at
// and SEU/SET injection, and campaign drivers (exhaustive and
// statistical random sampling with confidence intervals) reproducing the
// cost/accuracy trade-off discussed in Section III.B of the RESCUE paper.
//
// The stuck-at engine is cone-restricted and incremental: per 64-pattern
// block the good machine is simulated once, and each faulty machine
// re-evaluates only the gates inside the fault's transitive fanout cone,
// comparing only the primary outputs that cone can reach. Gates outside
// the cone cannot depend on the fault site, so results are bit-identical
// to the full-pass reference engine (RunFull, kept for differential
// testing and cost baselines) at a fraction of the cost. The engine
// lives in Session, a persistent fault-dropping kernel that keeps packed
// machines and cone caches warm across calls; Run wraps a single-use
// Session for one-shot campaigns.
package faultsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// Report holds the outcome of a stuck-at fault-simulation campaign.
type Report struct {
	Circuit    string
	Patterns   int
	Faults     int
	Status     []fault.Status // parallel to the input fault list
	DetectedBy []int          // first detecting pattern index, -1 if none
	// GateEvals counts gates actually evaluated — good-machine passes
	// plus every faulty-machine (cone) evaluation — the dominant cost
	// driver; campaign comparisons (E7, E12) report it as "cost".
	GateEvals int64
}

// Coverage summarises the report.
func (r *Report) Coverage() fault.Coverage {
	c := fault.Coverage{Total: len(r.Status)}
	for _, s := range r.Status {
		switch s {
		case fault.Detected:
			c.Detected++
		case fault.Untestable:
			c.Untestable++
		case fault.Aborted:
			c.Aborted++
		}
	}
	return c
}

// newStuckAtReport allocates a report with every status NotSimulated.
func newStuckAtReport(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) *Report {
	rep := &Report{
		Circuit:    n.Name,
		Patterns:   len(patterns),
		Faults:     len(faults),
		Status:     make([]fault.Status, len(faults)),
		DetectedBy: make([]int, len(faults)),
	}
	for i := range rep.Status {
		rep.Status[i] = fault.NotSimulated
		rep.DetectedBy[i] = -1
	}
	return rep
}

// combGateCount returns the number of gates one combinational pass
// actually evaluates (everything except primary inputs and DFF state).
func combGateCount(n *netlist.Netlist) int {
	return n.NumGates() - len(n.Inputs) - len(n.DFFs)
}

// detectionSlot folds a block-local diff mask into the report: the lowest
// set bit across *all* compared outputs is the first detecting pattern.
func (r *Report) detectionSlot(fi, base int, diff uint64) {
	if diff != 0 {
		r.Status[fi] = fault.Detected
		r.DetectedBy[fi] = base + bits.TrailingZeros64(diff)
	} else if r.Status[fi] == fault.NotSimulated {
		r.Status[fi] = fault.Undetected
	}
}

// Run fault-simulates the given stuck-at fault list against the pattern
// set using cone-restricted incremental PPSFP with fault dropping: each
// 64-pattern block is simulated once fault-free, then every
// still-undetected fault re-evaluates only its fanout cone against the
// good machine and compares only the cone's reachable primary outputs.
// Status, DetectedBy and Coverage are bit-identical to RunFull;
// GateEvals counts the gates actually evaluated.
//
// Run is a thin wrapper over a single-use Session; callers that simulate
// the same circuit and fault list repeatedly (ATPG test-and-drop,
// compaction, incremental verification) should hold a Session instead
// and keep its packed machines and cone caches warm.
func Run(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) (*Report, error) {
	s, err := NewSession(n, faults)
	if err != nil {
		return nil, err
	}
	if _, err := s.Simulate(patterns); err != nil {
		return nil, err
	}
	return s.Report(), nil
}

// RunFull is the full-pass PPSFP reference engine: every faulty machine
// re-simulates the entire netlist and compares every primary output. It
// exists as the differential-testing oracle and cost baseline for the
// cone-restricted Run; results (Status/DetectedBy/Coverage) are
// bit-identical, only GateEvals differs.
func RunFull(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) (*Report, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("faultsim: RunFull handles combinational circuits; use SequentialRun")
	}
	good, err := sim.NewPacked(n)
	if err != nil {
		return nil, err
	}
	bad, err := sim.NewPacked(n)
	if err != nil {
		return nil, err
	}
	rep := newStuckAtReport(n, faults, patterns)
	for _, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("faultsim: %w", err)
		}
	}
	comb := int64(combGateCount(n))
	for base := 0; base < len(patterns); base += 64 {
		hi := base + 64
		if hi > len(patterns) {
			hi = len(patterns)
		}
		block := patterns[base:hi]
		if err := good.LoadPatterns(block); err != nil {
			return nil, err
		}
		good.Run()
		rep.GateEvals += comb
		blockMask := ^uint64(0)
		if len(block) < 64 {
			blockMask = (uint64(1) << uint(len(block))) - 1
		}
		for fi := range faults {
			if rep.Status[fi] == fault.Detected {
				continue // dropped
			}
			f := faults[fi]
			if f.Kind != fault.StuckAt {
				continue
			}
			if err := bad.LoadPatterns(block); err != nil {
				return nil, err
			}
			bad.RunWithFault(sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, ^uint64(0))
			rep.GateEvals += comb
			// Accumulate the diff over *all* outputs before taking the
			// lowest bit: breaking on the first differing output reported
			// a wrong (non-minimal) DetectedBy pattern.
			var diff uint64
			for _, oid := range n.Outputs {
				diff |= logic.DiffW(good.Word(oid), bad.Word(oid))
			}
			rep.detectionSlot(fi, base, diff&blockMask)
		}
	}
	return rep, nil
}

// TransientOutcome classifies the effect of one injected transient fault.
type TransientOutcome uint8

const (
	// Masked: the fault left no trace — outputs and final state match.
	Masked TransientOutcome = iota
	// SDC: silent data corruption — a primary output differed.
	SDC
	// Latent: outputs matched but the final flip-flop state differs.
	Latent
)

// String names the outcome.
func (o TransientOutcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "SDC"
	case Latent:
		return "latent"
	}
	return fmt.Sprintf("TransientOutcome(%d)", uint8(o))
}

// Injection identifies one transient injection point.
type Injection struct {
	Fault fault.Fault
	Cycle int
}

// validateTransients rejects, before anything is simulated, any fault
// that is not a transient or names a gate outside the circuit.
func validateTransients(n *netlist.Netlist, faults fault.List) error {
	for _, f := range faults {
		if f.Kind != fault.SEU && f.Kind != fault.SET {
			return fmt.Errorf("faultsim: transient injection needs SEU or SET, got %v", f.Kind)
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return fmt.Errorf("faultsim: %w", err)
		}
	}
	return nil
}

// InjectTransient runs the sequential circuit over the stimuli from
// reset, flipping the target at the given cycle, and classifies the
// outcome against the fault-free run. SEU faults flip a flip-flop's
// state before the cycle's evaluation; SET faults flip a combinational
// node's value after evaluation and re-propagate it, modelling a latched
// glitch. The second return value is the number of cycles actually
// simulated: an SDC stops the run early, so campaigns charging cost must
// use it rather than assuming len(stimuli) cycles.
func InjectTransient(n *netlist.Netlist, stimuli []logic.Vector, inj Injection) (TransientOutcome, int, error) {
	if err := validateTransients(n, fault.List{inj.Fault}); err != nil {
		return Masked, 0, err
	}
	if inj.Cycle < 0 || inj.Cycle >= len(stimuli) {
		return Masked, 0, fmt.Errorf("faultsim: injection cycle %d out of range", inj.Cycle)
	}
	e, err := newTimeFrames(n, stimuli)
	if err != nil {
		return Masked, 0, err
	}
	out, cycles := e.run(inj.Fault, inj.Cycle)
	return out, cycles, nil
}

// TransientReport summarises a transient campaign.
type TransientReport struct {
	Injections int
	Counts     map[TransientOutcome]int
	// GateEvals is the exact faulty-machine simulation cost: cycles
	// actually stepped × combinational gates (one pass per cycle). SDC
	// early exits charge only the cycles that ran. The single golden
	// trace shared by all injections is not charged (it is amortised
	// across the campaign), and neither is a SET's re-run of its
	// injection cycle.
	GateEvals int64
}

// SDCRate returns the fraction of injections that produced silent data
// corruption; with FIT scaling this is the architectural derating factor.
func (r *TransientReport) SDCRate() float64 {
	if r.Injections == 0 {
		return 0
	}
	return float64(r.Counts[SDC]) / float64(r.Injections)
}

// MaskRate returns the fraction of fully masked injections.
func (r *TransientReport) MaskRate() float64 {
	if r.Injections == 0 {
		return 0
	}
	return float64(r.Counts[Masked]) / float64(r.Injections)
}

// inject runs one injection on the engine and folds it into the report.
func (r *TransientReport) inject(e *timeFrames, f fault.Fault, cycle int) {
	out, cycles := e.run(f, cycle)
	r.Counts[out]++
	r.Injections++
	r.GateEvals += int64(cycles) * int64(e.c.ScheduleLen())
}

// ExhaustiveTransient injects every fault in the list at every cycle.
// Cost grows as |faults| × |cycles| × |gates| — the "ultimate in accuracy
// but very cumbersome" method of Section III.B.
func ExhaustiveTransient(n *netlist.Netlist, stimuli []logic.Vector, faults fault.List) (*TransientReport, error) {
	if err := validateTransients(n, faults); err != nil {
		return nil, err
	}
	e, err := newTimeFrames(n, stimuli)
	if err != nil {
		return nil, err
	}
	rep := &TransientReport{Counts: make(map[TransientOutcome]int)}
	for _, f := range faults {
		for c := range stimuli {
			rep.inject(e, f, c)
		}
	}
	return rep, nil
}

// RandomTransient samples N injections uniformly over faults × cycles
// using the given seed — the statistical fault injection method.
func RandomTransient(n *netlist.Netlist, stimuli []logic.Vector, faults fault.List, samples int, seed int64) (*TransientReport, error) {
	if err := validateTransients(n, faults); err != nil {
		return nil, err
	}
	if samples > 0 && (len(faults) == 0 || len(stimuli) == 0) {
		return nil, fmt.Errorf("faultsim: cannot sample %d injections from %d faults × %d cycles", samples, len(faults), len(stimuli))
	}
	e, err := newTimeFrames(n, stimuli)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rep := &TransientReport{Counts: make(map[TransientOutcome]int)}
	for i := 0; i < samples; i++ {
		f := faults[rng.Intn(len(faults))]
		rep.inject(e, f, rng.Intn(len(stimuli)))
	}
	return rep, nil
}

// WilsonCI returns the Wilson score interval for k successes out of n
// trials at confidence level z (1.96 ≈ 95%, 2.58 ≈ 99%).
func WilsonCI(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	den := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / den
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / den
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// SampleSizeForMargin returns the number of random fault injections
// needed for a two-sided margin of error e at confidence z, using the
// conservative p=0.5 bound — the classical statistical fault injection
// sizing formula.
func SampleSizeForMargin(e, z float64) int {
	if e <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(z * z * 0.25 / (e * e)))
}

// RandomPatterns generates count uniformly random fully specified input
// vectors for the circuit, deterministically from seed.
//
// Each bit is rng.Intn(2) as math/rand computes it for a power of two,
// bit 32 of Int63, so the stream is the one Intn would draw. The
// vectors are carved from one backing array, each capped at its own
// length so an append to one cannot write into the next.
func RandomPatterns(n *netlist.Netlist, count int, seed int64) []logic.Vector {
	rng := rand.New(rand.NewSource(seed))
	width := len(n.Inputs)
	backing := make(logic.Vector, count*width)
	for i := range backing {
		backing[i] = logic.FromBool(rng.Int63()>>32&1 == 1)
	}
	out := make([]logic.Vector, count)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// SequentialResult reports a multi-cycle stuck-at campaign over a
// sequential circuit (the in-field test scenario: the fault is present
// from power-on and the test program observes outputs every cycle).
type SequentialResult struct {
	Status    []fault.Status
	GateEvals int64
}

// Coverage summarises the sequential campaign.
func (r *SequentialResult) Coverage() fault.Coverage {
	c := fault.Coverage{Total: len(r.Status)}
	for _, s := range r.Status {
		if s == fault.Detected {
			c.Detected++
		}
	}
	return c
}

// SequentialRun fault-simulates permanent stuck-at faults on a
// sequential circuit: golden and faulty machines start from the all-zero
// reset state and step through the stimuli; a fault is detected on the
// first cycle a primary output differs. Both output-site and input-pin
// faults are injected; out-of-range sites error out before anything is
// simulated.
func SequentialRun(n *netlist.Netlist, faults fault.List, stimuli []logic.Vector) (*SequentialResult, error) {
	for _, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("faultsim: %w", err)
		}
	}
	e, err := newTimeFrames(n, stimuli)
	if err != nil {
		return nil, err
	}
	res := &SequentialResult{Status: make([]fault.Status, len(faults))}
	for fi, f := range faults {
		if f.Kind != fault.StuckAt {
			res.Status[fi] = fault.NotSimulated
			continue
		}
		out, cycles := e.run(f, -1)
		res.Status[fi] = fault.Undetected
		if out == SDC {
			res.Status[fi] = fault.Detected
		}
		res.GateEvals += int64(cycles) * int64(e.c.ScheduleLen())
	}
	return res, nil
}

// timeFrames is the compiled time-frame engine behind SequentialRun and
// the transient injectors. It holds the golden per-cycle primary outputs
// and final flip-flop state of one stimulus set, computed once, and one
// reused faulty value array that every run restarts from the all-zero
// reset state on the shared sim.Compiled.
type timeFrames struct {
	c       *sim.Compiled
	n       *netlist.Netlist
	stimuli []logic.Vector
	outs    []logic.V // golden primary outputs, cycle-major
	state   []logic.V // golden flip-flop state after the last cycle
	vals    []logic.V // the faulty machine, indexed by gate ID
	next    []logic.V // D values sampled at the clock edge
	scratch []logic.V
}

// faultFree drives the golden machine: a transient that is never
// injected leaves every cycle fault-free.
var faultFree = fault.Fault{Kind: fault.SEU, Pin: -1}

func newTimeFrames(n *netlist.Netlist, stimuli []logic.Vector) (*timeFrames, error) {
	c, err := sim.Compile(n)
	if err != nil {
		return nil, err
	}
	e := &timeFrames{
		c: c, n: n, stimuli: stimuli,
		outs:    make([]logic.V, 0, len(stimuli)*len(n.Outputs)),
		state:   make([]logic.V, len(n.DFFs)),
		vals:    make([]logic.V, n.NumGates()),
		next:    make([]logic.V, len(n.DFFs)),
		scratch: c.NewValueScratch(),
	}
	e.reset()
	for cyc := range stimuli {
		e.stepFrame(faultFree, cyc, false)
		for _, id := range n.Outputs {
			e.outs = append(e.outs, e.vals[id])
		}
		e.latch(faultFree)
	}
	for i, id := range n.DFFs {
		e.state[i] = e.vals[id]
	}
	return e, nil
}

// reset puts the faulty machine in its power-on state: flip-flops at
// zero, every other gate X.
func (e *timeFrames) reset() {
	for i := range e.vals {
		e.vals[i] = logic.X
	}
	for _, id := range e.n.DFFs {
		e.vals[id] = logic.Zero
	}
}

// run restarts the faulty machine from reset and clocks it through the
// stimuli with f applied — a stuck-at in every cycle, an SEU or SET only
// at cycle inj — stopping at the first output mismatch. It returns the
// outcome and the number of cycles simulated.
func (e *timeFrames) run(f fault.Fault, inj int) (TransientOutcome, int) {
	e.reset()
	width := len(e.n.Outputs)
	for cyc := range e.stimuli {
		e.stepFrame(f, cyc, cyc == inj)
		for i, id := range e.n.Outputs {
			if e.vals[id] != e.outs[cyc*width+i] {
				return SDC, cyc + 1
			}
		}
		e.latch(f)
	}
	for i, id := range e.n.DFFs {
		if e.vals[id] != e.state[i] {
			return Latent, len(e.stimuli)
		}
	}
	return Masked, len(e.stimuli)
}

// stepFrame loads cycle cyc's inputs and evaluates the combinational
// logic with f applied. An SEU flips its site before the inputs load (so
// only held state keeps the flip); a SET re-runs the cycle with its site
// forced to the inverse of the value it just settled to.
func (e *timeFrames) stepFrame(f fault.Fault, cyc int, inject bool) {
	v := e.vals
	if inject && f.Kind == fault.SEU {
		v[f.Gate] = logic.Not(v[f.Gate])
	}
	// Short vectors leave the remaining inputs untouched.
	for i, x := range e.stimuli[cyc] {
		if i >= len(e.n.Inputs) {
			break
		}
		v[e.n.Inputs[i]] = x
	}
	switch {
	case f.Kind == fault.StuckAt:
		e.c.RunVWithFault(v, e.scratch, sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value})
	case inject && f.Kind == fault.SET:
		e.c.RunV(v)
		e.c.RunVWithFault(v, e.scratch, sim.FaultSite{Gate: f.Gate, Pin: -1, SA: logic.Not(v[f.Gate])})
	default:
		e.c.RunV(v)
	}
}

// latch clocks every flip-flop simultaneously from its D pin; a stuck D
// pin latches its stuck value regardless of its driver.
func (e *timeFrames) latch(f fault.Fault) {
	for i, id := range e.n.DFFs {
		if f.Kind == fault.StuckAt && id == f.Gate && f.Pin == 0 {
			e.next[i] = f.Value
		} else {
			e.next[i] = e.vals[e.n.Gate(id).Fanin[0]]
		}
	}
	for i, id := range e.n.DFFs {
		e.vals[id] = e.next[i]
	}
}
