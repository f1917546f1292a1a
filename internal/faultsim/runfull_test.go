package faultsim

import (
	"fmt"
	"math/bits"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// This file holds the full-pass reference engine the tests compare the
// cone-restricted Session against. It lives in a _test.go file so that
// production keeps one stuck-at engine; tests in the external
// faultsim_test package still reach it as faultsim.RunFull.

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

// RunFull is the full-pass PPSFP reference engine: every faulty machine
// re-simulates the entire netlist and compares every primary output. It
// is the differential-testing oracle and cost baseline for the
// cone-restricted Run; results (Status/DetectedBy/Coverage) are
// bit-identical, only GateEvals differs.
func RunFull(n *netlist.Netlist, faults fault.List, patterns []logic.Vector) (*Report, error) {
	return RunFullWithAlarms(n, faults, patterns, 0)
}

// RunFullWithAlarms is RunFull reading the netlist's last alarms outputs
// as alarms, the oracle for NewSessionWithAlarms: a pattern detects a
// fault when a non-alarm output differs and no alarm output does.
func RunFullWithAlarms(n *netlist.Netlist, faults fault.List, patterns []logic.Vector, alarms int) (*Report, error) {
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
	// A pass evaluates every gate but the inputs: the circuit is
	// combinational.
	comb := int64(n.NumGates() - len(n.Inputs))
	firstAlarm := len(n.Outputs) - alarms
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
			bad.RunWithFault(sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value})
			rep.GateEvals += comb
			// Accumulate the diff over *all* outputs before taking the
			// lowest bit: breaking on the first differing output reported
			// a wrong (non-minimal) DetectedBy pattern.
			var diff, alarm uint64
			for oi, oid := range n.Outputs {
				d := logic.DiffW(good.Word(oid), bad.Word(oid))
				if oi < firstAlarm {
					diff |= d
				} else {
					alarm |= d
				}
			}
			rep.detectionSlot(fi, base, diff&^alarm&blockMask)
		}
	}
	return rep, nil
}
