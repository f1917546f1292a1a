package faultsim

import (
	"fmt"
	"math/bits"

	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/sim"
)

// Session-level instrumentation. Counters are flushed once per Simulate
// call from the exact aggregates the session already maintains — never
// inside the per-cone loop — so the cost is a constant few atomic adds
// per call regardless of fault count (asserted by BenchmarkObsOverhead).
var (
	obsSessions   = obs.NewCounter("faultsim_sessions_total", "Fault-simulation sessions constructed.")
	obsGateEvals  = obs.NewCounter("sim_gate_evals_total", "Gate evaluations performed by the packed fault-simulation kernels (good passes + cone passes), in gate-word units.")
	obsConeEvals  = obs.NewCounter("sim_cone_evals_total", "Gate evaluations spent in cone-restricted faulty passes (subset of sim_gate_evals_total).")
	obsDropped    = obs.NewCounter("faultsim_faults_dropped_total", "Faults dropped on first detection by fault-dropping sessions.")
	obsSimPattrns = obs.NewCounter("faultsim_patterns_total", "Patterns simulated by fault-dropping sessions.")
)

// undetWords returns the bitset word count needed to track n faults —
// the single sizing rule for the session's undetected set.
func undetWords(n int) int { return (n + 63) / 64 }

// bitIndex reconstructs the fault index of bit `bit` inside bitset word
// wi — the inverse of the fi>>6 / fi&63 addressing used to set and
// clear bits.
func bitIndex(wi, bit int) int { return wi<<6 + bit }

// Session is a persistent fault-dropping simulation kernel. It keeps the
// packed good- and faulty-machine simulators and the per-fault fanout
// cones warm across calls, tracks the still-undetected fault set in a
// bitset, and drops every fault on its first detection — so callers that
// interleave simulation with other work (ATPG test-and-drop, static
// compaction, incremental verification) never rebuild simulation state
// and never re-simulate a detected fault.
//
// Simulate consumes patterns in the widest chunks available: every full
// block of sim.BlockPatterns patterns runs on the 256-slot wide kernels
// (one wide good pass, one wide cone pass per undetected fault), and
// only the remainder falls back to 64-pattern word blocks. All
// per-chunk scratch is arena-reused across calls, so a warm session's
// Simulate performs zero heap allocations (asserted by
// TestSessionSimulateZeroAlloc).
//
// A Session is single-goroutine from the caller's perspective; the
// compiled machine and cone cache it shares through the netlist are
// internally synchronised, but the packed machines are not. Run is a
// thin wrapper over a fresh Session, and its results are bit-identical
// to the pre-session engine (enforced by the differential tests against
// RunFull).
type Session struct {
	n *netlist.Netlist
	// compiled is the netlist's shared SoA machine: all packed machines
	// execute it, so constructing a session allocates only word state —
	// the structure (fanin arena, schedule, cones) is compiled once per
	// circuit and shared across sessions and campaign jobs.
	compiled  *sim.Compiled
	good, bad *sim.Packed
	// The wide machines are built lazily by ensureWide on the first
	// full-block chunk: sessions fed only short pattern runs (ATPG
	// single-vector drops) never pay for them.
	wgood, wbad *sim.PackedBlock
	faults      fault.List
	cones       []*netlist.Cone
	st          []fault.Status
	detectedBy  []int
	undet       []uint64 // bitset over fault indices: undetected stuck-at faults
	remaining   int
	patterns    int   // total patterns simulated since the last Reset
	gateEvals   int64 // cumulative over the session lifetime (survives Reset)
	comb        int64
	// detBuf backs SimResult.Detected, filled by indexed store so the hot
	// loops never append.
	detBuf []int
	detN   int
}

// SimResult reports one Simulate call: which faults it newly detected
// (and therefore dropped) and exactly how many gates it evaluated.
type SimResult struct {
	// Patterns is the number of patterns this call simulated.
	Patterns int
	// Detected lists the fault indices newly detected by this call, in
	// detection order: chunk-major, ascending fault index within a
	// chunk. The slice aliases a session arena — it is valid until the
	// next Simulate call; copy it to retain it longer.
	Detected []int
	// GateEvals is the exact evaluation cost of this call in gate-word
	// units (one gate evaluated over one 64-pattern word): each good
	// pass charges the combinational gate count per word it carries,
	// and each cone pass its evaluated gate count times its word width.
	GateEvals int64
}

// NewSession builds a session for a combinational circuit. Stuck-at
// fault sites are validated and their fanout cones resolved up front
// (the per-root cache on the netlist makes repeated sites free and
// shares cones across sessions on the same circuit). Non-stuck-at faults
// are carried but never simulated: their status stays NotSimulated.
func NewSession(n *netlist.Netlist, faults fault.List) (*Session, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("faultsim: Session handles combinational circuits; use SequentialRun")
	}
	good, err := sim.NewPacked(n)
	if err != nil {
		return nil, err
	}
	s := &Session{
		n: n, compiled: good.Compiled(), good: good, bad: good.Compiled().NewPacked(),
		faults:     faults,
		cones:      make([]*netlist.Cone, len(faults)),
		st:         make([]fault.Status, len(faults)),
		detectedBy: make([]int, len(faults)),
		undet:      make([]uint64, undetWords(len(faults))),
		detBuf:     make([]int, len(faults)),
		comb:       int64(combGateCount(n)),
	}
	for fi, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("faultsim: %w", err)
		}
		if s.cones[fi], err = n.FanoutConeOrdered(f.Gate); err != nil {
			return nil, err
		}
	}
	s.Reset()
	obsSessions.Inc()
	return s, nil
}

// Reset clears the detection state — statuses, first-detecting-pattern
// indices, the pattern counter and the undetected set — while keeping
// the packed machines and cone caches warm. The cumulative GateEvals
// counter is preserved: it measures session-lifetime simulation cost.
func (s *Session) Reset() {
	s.patterns = 0
	s.remaining = 0
	s.detN = 0
	for i := range s.undet {
		s.undet[i] = 0
	}
	for fi := range s.faults {
		s.st[fi] = fault.NotSimulated
		s.detectedBy[fi] = -1
		if s.faults[fi].Kind == fault.StuckAt {
			s.undet[fi>>6] |= 1 << uint(fi&63)
			s.remaining++
		}
	}
}

// ensureWide lazily builds the wide good and faulty machines.
func (s *Session) ensureWide() {
	if s.wgood == nil {
		s.wgood = s.compiled.NewPackedBlock()
		s.wbad = s.compiled.NewPackedBlock()
	}
}

// Simulate runs the patterns against the still-undetected fault set,
// dropping every fault on its first detection. Detection indices
// (DetectedBy) are global: they continue from the patterns simulated by
// earlier calls since the last Reset. Simulating in chunks yields the
// same Status/DetectedBy as one call with the concatenated patterns;
// only GateEvals may differ (chunk boundaries change how much work
// dropping saves).
func (s *Session) Simulate(patterns []logic.Vector) (SimResult, error) {
	res := SimResult{Patterns: len(patterns)}
	s.detN = 0
	var goodEvals int64
	base := 0
	// Every full 256-pattern block runs wide; the tail falls back to
	// 64-pattern word blocks so short runs (ATPG drop calls) keep the
	// word path's exact cost profile.
	for ; base+sim.BlockPatterns <= len(patterns); base += sim.BlockPatterns {
		if err := s.simulateWideChunk(patterns[base:base+sim.BlockPatterns], base, &res); err != nil {
			return res, err
		}
		goodEvals += int64(logic.BlockWords) * s.comb
	}
	for ; base < len(patterns); base += 64 {
		hi := base + 64
		if hi > len(patterns) {
			hi = len(patterns)
		}
		if err := s.simulateWordBlock(patterns[base:hi], base, &res); err != nil {
			return res, err
		}
		goodEvals += s.comb
	}
	res.Detected = s.detBuf[:s.detN:s.detN]
	s.patterns += len(patterns)
	s.gateEvals += res.GateEvals
	// Flush the call's aggregates to the process-wide registry: total
	// evals, the cone-restricted share (total minus the good passes),
	// drops and patterns — four atomic adds per Simulate call.
	obsGateEvals.Add(res.GateEvals)
	obsConeEvals.Add(res.GateEvals - goodEvals)
	obsDropped.Add(int64(s.detN))
	obsSimPattrns.Add(int64(len(patterns)))
	return res, nil
}

// simulateWordBlock runs one <=64-pattern block on the word machines:
// the original serial hot loop, walking the undetected bitset directly
// and dropping in place.
func (s *Session) simulateWordBlock(block []logic.Vector, base int, res *SimResult) error {
	if err := s.good.LoadPatterns(block); err != nil {
		return err
	}
	s.good.Run()
	// Align the faulty machine to the fresh good pass once; every cone
	// pass below then runs membership-test-free and restores the
	// alignment itself (sim.RunConeAligned).
	s.bad.AlignTo(s.good)
	res.GateEvals += s.comb
	blockMask := ^uint64(0)
	if len(block) < 64 {
		blockMask = (uint64(1) << uint(len(block))) - 1
	}
	for wi, w := range s.undet {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			fi := bitIndex(wi, bit)
			f := s.faults[fi]
			diff, evals := s.bad.RunConeAligned(s.good, s.cones[fi],
				sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, ^uint64(0))
			res.GateEvals += int64(evals)
			diff &= blockMask
			if diff != 0 {
				s.recordDetection(fi, base+bits.TrailingZeros64(diff))
			} else if s.st[fi] == fault.NotSimulated {
				s.st[fi] = fault.Undetected
			}
		}
	}
	return nil
}

// simulateWideChunk runs one full 256-pattern chunk on the wide
// machines: one wide good pass, then one wide cone pass per undetected
// fault, walking the undetected bitset and dropping in place as
// simulateWordBlock does.
func (s *Session) simulateWideChunk(chunk []logic.Vector, base int, res *SimResult) error {
	s.ensureWide()
	if err := s.wgood.LoadPatterns(chunk); err != nil {
		return err
	}
	s.wgood.Run()
	s.wbad.AlignTo(s.wgood)
	res.GateEvals += int64(logic.BlockWords) * s.comb
	mask := logic.BlockMaskAll()
	for wi, w := range s.undet {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			fi := bitIndex(wi, bit)
			f := s.faults[fi]
			diff, evals := s.wbad.RunConeAligned(s.wgood, s.cones[fi],
				sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, &mask)
			res.GateEvals += int64(evals) * logic.BlockWords
			if diff.Any() {
				s.recordDetection(fi, base+diff.FirstSlot())
			} else if s.st[fi] == fault.NotSimulated {
				s.st[fi] = fault.Undetected
			}
		}
	}
	return nil
}

// recordDetection marks fault fi detected by chunk-local pattern slot
// (already offset by the chunk base), drops it from the undetected set
// and appends it to the call's detection arena.
func (s *Session) recordDetection(fi, slot int) {
	s.st[fi] = fault.Detected
	s.detectedBy[fi] = s.patterns + slot
	s.undet[fi>>6] &^= 1 << uint(fi&63)
	s.remaining--
	s.detBuf[s.detN] = fi
	s.detN++
}

// Exclude removes fault fi from the undetected set without changing its
// status: subsequent Simulate calls stop paying for its cone. Callers
// use it for faults proven untestable (or given up on), whose cones can
// never produce a detection. Reset restores excluded faults.
func (s *Session) Exclude(fi int) {
	if s.undet[fi>>6]&(1<<uint(fi&63)) != 0 {
		s.undet[fi>>6] &^= 1 << uint(fi&63)
		s.remaining--
	}
}

// StatusOf returns the current status of fault fi.
func (s *Session) StatusOf(fi int) fault.Status { return s.st[fi] }

// DetectedBy returns the global index of the first pattern that detected
// fault fi since the last Reset, or -1 if it is undetected.
func (s *Session) DetectedBy(fi int) int { return s.detectedBy[fi] }

// RemainingCount returns how many stuck-at faults are still undetected.
func (s *Session) RemainingCount() int { return s.remaining }

// Remaining returns the indices of the still-undetected stuck-at faults
// in ascending order. Non-stuck-at faults are never included.
func (s *Session) Remaining() []int {
	out := make([]int, 0, s.remaining)
	for wi, w := range s.undet {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			out = append(out, bitIndex(wi, bit))
		}
	}
	return out
}

// PatternsSimulated returns the number of patterns simulated since the
// last Reset.
func (s *Session) PatternsSimulated() int { return s.patterns }

// GateEvals returns the cumulative gate-evaluation count over the
// session lifetime (it is not cleared by Reset).
func (s *Session) GateEvals() int64 { return s.gateEvals }

// Report snapshots the session as a campaign Report: statuses and
// first-detecting-pattern indices since the last Reset, and the
// session-lifetime GateEvals. The slices are copies — later Simulate
// calls do not mutate a returned report.
func (s *Session) Report() *Report {
	return &Report{
		Circuit:    s.n.Name,
		Patterns:   s.patterns,
		Faults:     len(s.faults),
		Status:     append([]fault.Status(nil), s.st...),
		DetectedBy: append([]int(nil), s.detectedBy...),
		GateEvals:  s.gateEvals,
	}
}
