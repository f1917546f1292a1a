// Package fusa implements the ISO 26262 functional-safety verification
// flow of Section III.D: fault classification against safety mechanisms,
// the SPFM / LFM / PMHF hardware architectural metrics with ASIL
// thresholds, FMECA tables, and the vendor-independent tool-confidence
// methodology of refs [20], [48], [50] that cross-checks fault-injection
// verdicts with ATPG/formal testability analysis to expose classification
// errors in the tools themselves.
package fusa

import (
	"fmt"
	"slices"

	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// FaultClass is the ISO 26262 fault classification.
type FaultClass uint8

const (
	// Safe faults cannot violate the safety goal.
	Safe FaultClass = iota
	// SinglePoint faults violate the safety goal and no safety mechanism
	// covers them (element without SM).
	SinglePoint
	// Residual faults violate the safety goal despite an SM (escape).
	Residual
	// MultiPointDetected faults are covered: the SM raises an alarm.
	MultiPointDetected
	// MultiPointLatent faults neither violate nor get detected but sit in
	// safety-relevant logic where a second fault could combine.
	MultiPointLatent
)

// String names the class.
func (c FaultClass) String() string {
	switch c {
	case Safe:
		return "safe"
	case SinglePoint:
		return "single-point"
	case Residual:
		return "residual"
	case MultiPointDetected:
		return "MPF-detected"
	case MultiPointLatent:
		return "MPF-latent"
	}
	return fmt.Sprintf("FaultClass(%d)", uint8(c))
}

// SafetyCircuit is a netlist with its outputs split into functional
// (safety-goal relevant) and alarm (safety-mechanism) groups.
type SafetyCircuit struct {
	N                 *netlist.Netlist
	FunctionalOutputs []int // gate IDs
	AlarmOutputs      []int // gate IDs; empty means "no safety mechanism"
}

// HasSM reports whether a safety mechanism observes this circuit.
func (sc *SafetyCircuit) HasSM() bool { return len(sc.AlarmOutputs) > 0 }

// validateOutputs rejects an output ID outside the netlist, before any
// simulation or search reads it.
func (sc *SafetyCircuit) validateOutputs() error {
	ng := sc.N.NumGates()
	for _, id := range sc.FunctionalOutputs {
		if id < 0 || id >= ng {
			return fmt.Errorf("fusa: functional output %d outside the circuit's %d gates", id, ng)
		}
	}
	for _, id := range sc.AlarmOutputs {
		if id < 0 || id >= ng {
			return fmt.Errorf("fusa: alarm output %d outside the circuit's %d gates", id, ng)
		}
	}
	return nil
}

// Classify runs a fault-injection campaign over the patterns and assigns
// an ISO 26262 class to every stuck-at fault:
//
//   - a pattern "violates" when a functional output differs from gold;
//   - a pattern "detects" when an alarm output differs from gold;
//   - any violating, undetected pattern ⇒ Residual (SinglePoint without SM);
//   - violations always accompanied by detection ⇒ MultiPointDetected;
//   - detection without violation ⇒ MultiPointDetected;
//   - neither, but the fault can reach a functional output ⇒ MultiPointLatent;
//   - unobservable faults ⇒ Safe.
//
// Each block of up to 64 patterns is loaded into the good machine once;
// the faulty machine is aligned to it before every fault's pass. An
// output or a stuck-at site outside the circuit is an error, reported
// before any simulation.
func Classify(sc *SafetyCircuit, faults fault.List, patterns []logic.Vector) ([]FaultClass, error) {
	if sc.N.IsSequential() {
		return nil, fmt.Errorf("fusa: Classify expects a combinational (or scan-view) netlist")
	}
	if err := sc.validateOutputs(); err != nil {
		return nil, err
	}
	for i, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(sc.N, f); err != nil {
			return nil, fmt.Errorf("fusa: fault %d: %w", i, err)
		}
	}
	good, err := sim.NewPacked(sc.N)
	if err != nil {
		return nil, err
	}
	bad := good.Compiled().NewPacked()
	type verdict struct{ violated, detected, violatedUndetected bool }
	verdicts := make([]verdict, len(faults))
	for base := 0; base < len(patterns); base += 64 {
		hiIdx := base + 64
		if hiIdx > len(patterns) {
			hiIdx = len(patterns)
		}
		block := patterns[base:hiIdx]
		if err := good.LoadPatterns(block); err != nil {
			return nil, err
		}
		good.Run()
		blockMask := ^uint64(0)
		if len(block) < 64 {
			blockMask = (uint64(1) << uint(len(block))) - 1
		}
		for fi, f := range faults {
			if f.Kind != fault.StuckAt {
				continue
			}
			if verdicts[fi].violatedUndetected {
				continue // worst class already proven; drop
			}
			bad.AlignTo(good)
			bad.RunWithFault(sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, ^uint64(0))
			var viol, det uint64
			for _, o := range sc.FunctionalOutputs {
				viol |= logic.DiffW(good.Word(o), bad.Word(o))
			}
			for _, o := range sc.AlarmOutputs {
				det |= logic.DiffW(good.Word(o), bad.Word(o))
			}
			viol &= blockMask
			det &= blockMask
			if viol != 0 {
				verdicts[fi].violated = true
			}
			if det != 0 {
				verdicts[fi].detected = true
			}
			if viol&^det != 0 {
				verdicts[fi].violatedUndetected = true
			}
		}
	}
	reachFunc := sc.N.FaninCone(sc.FunctionalOutputs, false)
	classes := make([]FaultClass, len(faults))
	for fi, f := range faults {
		v := verdicts[fi]
		switch {
		case v.violatedUndetected && !sc.HasSM():
			classes[fi] = SinglePoint
		case v.violatedUndetected:
			classes[fi] = Residual
		case v.violated || v.detected:
			classes[fi] = MultiPointDetected
		case reachFunc[f.Gate]:
			classes[fi] = MultiPointLatent
		default:
			classes[fi] = Safe
		}
	}
	return classes, nil
}

// ASIL is an automotive safety integrity level.
type ASIL uint8

// ASIL levels with architectural metric thresholds defined by the
// standard (SPFM/LFM in percent).
const (
	QM ASIL = iota
	ASILA
	ASILB
	ASILC
	ASILD
)

// String names the level.
func (a ASIL) String() string {
	return [...]string{"QM", "ASIL-A", "ASIL-B", "ASIL-C", "ASIL-D"}[a]
}

// thresholds returns (SPFM, LFM) minimums; QM and ASIL-A have none.
func (a ASIL) thresholds() (spfm, lfm float64) {
	switch a {
	case ASILB:
		return 0.90, 0.60
	case ASILC:
		return 0.97, 0.80
	case ASILD:
		return 0.99, 0.90
	}
	return 0, 0
}

// Metrics holds the ISO 26262 hardware architectural metrics.
type Metrics struct {
	Counts map[FaultClass]int
	// SPFM = 1 - λ(SPF+RF)/λtotal; LFM = 1 - λ(MPF,latent)/(λtotal-λSPF-λRF).
	SPFM float64
	LFM  float64
	// PMHF approximates λSPF+λRF in FIT given a per-fault FIT weight.
	PMHF float64
}

// ComputeMetrics derives the architectural metrics assuming each fault
// carries equal failure rate fitPerFault.
func ComputeMetrics(classes []FaultClass, fitPerFault float64) Metrics {
	m := Metrics{Counts: make(map[FaultClass]int)}
	for _, c := range classes {
		m.Counts[c]++
	}
	total := float64(len(classes))
	if total == 0 {
		return m
	}
	spf := float64(m.Counts[SinglePoint] + m.Counts[Residual])
	latent := float64(m.Counts[MultiPointLatent])
	m.SPFM = 1 - spf/total
	if rem := total - spf; rem > 0 {
		m.LFM = 1 - latent/rem
	}
	m.PMHF = spf * fitPerFault
	return m
}

// MeetsASIL checks the metrics against the level's thresholds.
func (m Metrics) MeetsASIL(a ASIL) bool {
	spfm, lfm := a.thresholds()
	return m.SPFM >= spfm && m.LFM >= lfm
}

// Suspicion flags one fault whose FI classification contradicts the
// independent ATPG/formal analysis.
type Suspicion struct {
	FaultIndex int
	Class      FaultClass
	ATPG       atpg.Outcome
	Reason     string
}

// CrossCheckReport carries the cross-check verdicts together with the
// cost of the underlying testability classification, so the
// tool-confidence pass shows up in timing output instead of hiding
// inside the safety stage.
type CrossCheckReport struct {
	Suspicions []Suspicion
	// Outcomes is the per-fault PODEM verdict over the functional view
	// (parallel to the fault list).
	Outcomes []atpg.Outcome
	// PODEMCalls and Backtracks measure the classification search cost:
	// every verdict counts, whether searched here or recalled from the
	// netlist's PODEM verdict table, so the figures do not depend on
	// what ran on the netlist before.
	PODEMCalls int
	Backtracks int
}

// CrossCheck implements the tool-confidence methodology: an independent
// testability engine (PODEM with a proof-capable backtrack budget) checks
// every fault classified by fault injection.
//
//   - A fault proven untestable w.r.t. the functional outputs can never
//     violate the safety goal: classifying it SinglePoint/Residual is a
//     tool error.
//   - A fault with a generated test that the campaign classified Safe
//     means the FI pattern set missed a real violation path: the verdict
//     is unsound (insufficient patterns or a tool bug).
//
// The classification runs through atpg.ClassifyFaults — the same engine
// allocation path as IdentifyUntestable — so both tools share one PODEM
// setup per netlist view and report comparable backtrack costs; opt.Spare
// lends it helper workers. When the functional outputs are the
// circuit's outputs, the view is sc.N itself, so the cross-check recalls
// every verdict an earlier search on sc.N left in its verdict table
// (the quality stage's, in a campaign job). Classes must be parallel to
// faults, and every output inside the circuit: both are checked before
// any search.
func CrossCheck(sc *SafetyCircuit, faults fault.List, classes []FaultClass, opt atpg.Options) (*CrossCheckReport, error) {
	if err := sc.validateOutputs(); err != nil {
		return nil, err
	}
	if len(classes) != len(faults) {
		return nil, fmt.Errorf("fusa: CrossCheck got %d classes for %d faults", len(classes), len(faults))
	}
	// PODEM reasons about safety-goal observability, so it searches a
	// view whose outputs are only the functional ones.
	view := sc.N
	if !slices.Equal(sc.FunctionalOutputs, sc.N.Outputs) {
		view = sc.N.Clone()
		view.Outputs = append([]int(nil), sc.FunctionalOutputs...)
	}
	cls, err := atpg.ClassifyFaults(view, faults, opt)
	if err != nil {
		return nil, err
	}
	rep := &CrossCheckReport{
		Outcomes:   cls.Outcomes,
		PODEMCalls: cls.Calls,
		Backtracks: cls.Backtracks,
	}
	for i := range faults {
		switch out := cls.Outcomes[i]; {
		case out == atpg.ProvenUntestable && (classes[i] == SinglePoint || classes[i] == Residual):
			rep.Suspicions = append(rep.Suspicions, Suspicion{
				FaultIndex: i, Class: classes[i], ATPG: out,
				Reason: "formally untestable fault classified as safety-goal violating",
			})
		case out == atpg.TestFound && classes[i] == Safe:
			rep.Suspicions = append(rep.Suspicions, Suspicion{
				FaultIndex: i, Class: classes[i], ATPG: out,
				Reason: "testable fault classified safe: FI pattern set insufficient",
			})
		}
	}
	return rep, nil
}

// Duplicate synthesises the duplication-with-comparator safety mechanism
// around a combinational netlist: the original logic is cloned and every
// primary output pair feeds an XOR whose OR-tree drives a single alarm
// output. This is the reference safety architecture used by the E2/E12
// flows and the rescue-fusa CLI.
func Duplicate(n *netlist.Netlist) (*SafetyCircuit, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("fusa: Duplicate expects a combinational netlist")
	}
	d := netlist.New(n.Name + "_dup")
	// Shared primary inputs.
	oldToMain := make([]int, n.NumGates())
	oldToShadow := make([]int, n.NumGates())
	for _, id := range n.Inputs {
		nid, err := d.AddInput(n.Gate(id).Name)
		if err != nil {
			return nil, err
		}
		oldToMain[id] = nid
		oldToShadow[id] = nid
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	copyCone := func(mapping []int, suffix string) error {
		for _, id := range order {
			g := n.Gate(id)
			if g.Type == netlist.Input {
				continue
			}
			fanin := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				fanin[i] = mapping[f]
			}
			nid, err := d.AddGate(g.Name+suffix, g.Type, fanin...)
			if err != nil {
				return err
			}
			mapping[id] = nid
		}
		return nil
	}
	if err := copyCone(oldToMain, ""); err != nil {
		return nil, err
	}
	if err := copyCone(oldToShadow, "_sh"); err != nil {
		return nil, err
	}
	sc := &SafetyCircuit{N: d}
	var xors []int
	for _, o := range n.Outputs {
		main := oldToMain[o]
		if err := d.MarkOutput(main); err != nil {
			return nil, err
		}
		sc.FunctionalOutputs = append(sc.FunctionalOutputs, main)
		x, err := d.AddGate(n.Gate(o).Name+"_cmp", netlist.Xor, main, oldToShadow[o])
		if err != nil {
			return nil, err
		}
		xors = append(xors, x)
	}
	alarm := xors[0]
	for i, x := range xors[1:] {
		var err error
		alarm, err = d.AddGate(fmt.Sprintf("alarm_or%d", i), netlist.Or, alarm, x)
		if err != nil {
			return nil, err
		}
	}
	if err := d.MarkOutput(alarm); err != nil {
		return nil, err
	}
	sc.AlarmOutputs = []int{alarm}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// FMECAEntry is one row of a failure-mode, effects and criticality table.
type FMECAEntry struct {
	Component   string
	FailureMode string
	Effect      string
	Severity    int // 1..10
	Occurrence  int // 1..10
	Detection   int // 1..10 (10 = undetectable)
}

// RPN returns the risk priority number S×O×D.
func (e FMECAEntry) RPN() int { return e.Severity * e.Occurrence * e.Detection }

// FMECA is an ordered criticality table.
type FMECA []FMECAEntry

// Critical returns entries with RPN of at least the threshold, ordered as
// in the table.
func (f FMECA) Critical(threshold int) FMECA {
	var out FMECA
	for _, e := range f {
		if e.RPN() >= threshold {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks score ranges.
func (f FMECA) Validate() error {
	for i, e := range f {
		for _, s := range []int{e.Severity, e.Occurrence, e.Detection} {
			if s < 1 || s > 10 {
				return fmt.Errorf("fusa: FMECA row %d (%s/%s): scores must be 1..10",
					i, e.Component, e.FailureMode)
			}
		}
	}
	return nil
}
