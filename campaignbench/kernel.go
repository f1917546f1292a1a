package main

import (
	"time"

	"rescue/campaignbench/stats"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// kernelSamples is the number of timed windows sim.ns_per_gate_eval is
// the median of.
const kernelSamples = 7

// kernelNsPerGateEval measures the fault-simulation kernel on fixed
// work: the mul8 all-sites wide-block cone sweep (256 patterns per
// pass), in gate-word units — one gate over one 64-pattern word, the
// unit of the sim_gate_evals_total counter — so that counter times this
// figure estimates the kernel's share of a campaign. Each sample is a
// window of about 50 ms; the median of kernelSamples is returned.
func kernelNsPerGateEval() (float64, error) {
	n := circuits.ArrayMultiplier(8)
	pats := make([]logic.Vector, sim.BlockPatterns)
	state := uint64(12345)
	for k := range pats {
		vec := make(logic.Vector, len(n.Inputs))
		for i := range vec {
			state = state*2862933555777941757 + 3037000493
			vec[i] = logic.FromBool(state&(1<<32) != 0)
		}
		pats[k] = vec
	}
	good, err := sim.NewPackedBlock(n)
	if err != nil {
		return 0, err
	}
	if err := good.LoadPatterns(pats); err != nil {
		return 0, err
	}
	good.Run()
	bad := good.Compiled().NewPackedBlock()
	var sites []sim.FaultSite
	var cones []*netlist.Cone
	sweepEvals := 0
	for _, f := range fault.Collapse(n, fault.AllStuckAt(n)) {
		cone, err := n.FanoutConeOrdered(f.Gate)
		if err != nil {
			return 0, err
		}
		sites = append(sites, sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value})
		cones = append(cones, cone)
		sweepEvals += cone.Evals * logic.BlockWords
	}
	bad.AlignTo(good)
	mask := logic.BlockMaskAll()
	sweep := func() {
		for i, site := range sites {
			bad.RunConeAligned(good, cones[i], site, &mask)
		}
	}
	t0 := time.Now()
	sweep()
	sweeps := int(50*time.Millisecond/time.Since(t0)) + 1
	ns := make([]float64, kernelSamples)
	for s := range ns {
		t := time.Now()
		for range sweeps {
			sweep()
		}
		ns[s] = float64(time.Since(t).Nanoseconds()) / float64(sweeps) / float64(sweepEvals)
	}
	return stats.Summarize(ns).Median, nil
}
