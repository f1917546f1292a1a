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
// SimulatePacked consumes a packed pattern set in the widest chunks
// available: every full block of sim.BlockPatterns patterns runs on the
// 256-slot wide kernels (one wide good pass, one wide cone pass per
// undetected fault), and only the remainder falls back to 64-pattern
// word blocks. Simulate packs its vectors into a set the session owns
// and runs the same loop. All per-chunk scratch is arena-reused across
// calls, so a warm session's Simulate and SimulatePacked perform zero
// heap allocations (asserted by TestSessionSimulateZeroAlloc).
//
// A pattern detects a fault when one of the netlist's outputs differs
// from the good machine. A session may read its netlist's last outputs
// as alarms (NewSessionWithAlarms): a pattern then detects a fault only
// when a non-alarm output differs and no alarm output differs with it,
// so the fault escapes the safety mechanism those alarms report.
//
// A Session is single-goroutine from the caller's perspective; the
// compiled machine and cone cache it shares through the netlist are
// internally synchronised, but the packed machines are not. Run is a
// thin wrapper over a fresh Session, and its results are bit-identical
// to the pre-session engine (enforced by the differential tests against
// the full-pass reference engine).
type Session struct {
	n *netlist.Netlist
	// alarms is how many of n's last outputs are alarms.
	alarms int
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
	// detBuf backs SimResult.Detected, filled by indexed store so the hot
	// loops never append.
	detBuf []int
	detN   int
	// packed is the set Simulate packs its vectors into, reused across
	// calls.
	packed sim.Patterns
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
	// pass charges its schedule length (the combinational gates) per
	// word it carries, and each cone pass its evaluated gate count times
	// its word width.
	GateEvals int64
}

// NewSession builds a session for a combinational circuit with no alarm
// outputs. Stuck-at fault sites are validated and their fanout cones
// resolved up front (the per-root cache on the netlist makes repeated
// sites free and shares cones across sessions on the same circuit).
// Non-stuck-at faults are carried but never simulated: their status
// stays NotSimulated.
func NewSession(n *netlist.Netlist, faults fault.List) (*Session, error) {
	return NewSessionWithAlarms(n, faults, 0)
}

// NewSessionWithAlarms builds a session that reads the netlist's last
// alarms outputs as alarms: a pattern detects a fault only when a
// non-alarm output differs and no alarm output does.
func NewSessionWithAlarms(n *netlist.Netlist, faults fault.List, alarms int) (*Session, error) {
	if n.IsSequential() {
		return nil, fmt.Errorf("faultsim: Session handles combinational circuits; use SequentialRun")
	}
	if alarms < 0 || alarms > len(n.Outputs) {
		return nil, fmt.Errorf("faultsim: %d alarm outputs out of the circuit's %d outputs", alarms, len(n.Outputs))
	}
	good, err := sim.NewPacked(n)
	if err != nil {
		return nil, err
	}
	s := &Session{
		n: n, alarms: alarms, compiled: good.Compiled(), good: good, bad: good.Compiled().NewPacked(),
		faults:     faults,
		cones:      make([]*netlist.Cone, len(faults)),
		st:         make([]fault.Status, len(faults)),
		detectedBy: make([]int, len(faults)),
		undet:      make([]uint64, undetWords(len(faults))),
		detBuf:     make([]int, len(faults)),
	}
	for fi, f := range faults {
		if f.Kind != fault.StuckAt {
			continue
		}
		if err := fault.ValidateSite(n, f); err != nil {
			return nil, fmt.Errorf("faultsim: fault %d: %w", fi, err)
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
// dropping saves). Inputs past the end of a short vector read X.
func (s *Session) Simulate(patterns []logic.Vector) (SimResult, error) {
	s.packed.Pack(len(s.n.Inputs), patterns)
	return s.SimulatePacked(&s.packed)
}

// SimulatePacked is Simulate over a packed pattern set, whose width must
// be the circuit's input count.
func (s *Session) SimulatePacked(pats *sim.Patterns) (SimResult, error) {
	count := pats.Len()
	res := SimResult{Patterns: count}
	s.detN = 0
	var goodEvals int64
	for base := 0; base < count; {
		// Every full 256-pattern chunk runs wide; the tail falls back to
		// 64-pattern word chunks so short runs (ATPG drop calls) keep the
		// word path's exact cost profile.
		words := 1
		if count-base >= sim.BlockPatterns {
			words = logic.BlockWords
		}
		if err := s.simulateChunk(pats, base, words, &res); err != nil {
			return res, err
		}
		goodEvals += int64(words) * int64(s.compiled.ScheduleLen())
		base = min(base+64*words, count)
	}
	res.Detected = s.detBuf[:s.detN:s.detN]
	s.patterns += count
	s.gateEvals += res.GateEvals
	// Flush the call's aggregates to the process-wide registry: total
	// evals, the cone-restricted share (total minus the good passes),
	// drops and patterns — four atomic adds per call.
	obsGateEvals.Add(res.GateEvals)
	obsConeEvals.Add(res.GateEvals - goodEvals)
	obsDropped.Add(int64(s.detN))
	obsSimPattrns.Add(int64(count))
	return res, nil
}

// simulateChunk runs the chunk of the set that starts at pattern base
// on the machines of its width: a full BlockPatterns chunk (words ==
// logic.BlockWords) on the wide machines, a chunk of at most 64 patterns
// (words == 1) on the word machines. It runs one good pass, then walks
// the undetected bitset in ascending fault order with one cone pass per
// fault, dropping each detected fault in place. Each pass charges its
// gate count times its width.
func (s *Session) simulateChunk(pats *sim.Patterns, base, words int, res *SimResult) error {
	wide := words > 1
	if wide {
		s.ensureWide()
		if err := s.wgood.LoadBlock(pats, base/64); err != nil {
			return err
		}
		s.wgood.Run()
		// Align the faulty machine to the fresh good pass once; every
		// cone pass below restores the alignment itself.
		s.wbad.AlignTo(s.wgood)
	} else {
		if err := s.good.LoadBlock(pats, base/64); err != nil {
			return err
		}
		s.good.Run()
		s.bad.AlignTo(s.good)
	}
	res.GateEvals += int64(words) * int64(s.compiled.ScheduleLen())
	// Slots past a short tail's last pattern hold no pattern: never
	// report them.
	tail := pats.Mask(base / 64)
	for wi, w := range s.undet {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			fi := bitIndex(wi, bit)
			f, cone := s.faults[fi], s.cones[fi]
			site := sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}
			var diff logic.BlockMask
			if wide {
				diff = s.wbad.RunConeWithAlarms(s.wgood, cone, site, s.alarms)
			} else {
				diff[0] = s.bad.RunConeWithAlarms(s.good, cone, site, s.alarms) & tail
			}
			res.GateEvals += int64(words * cone.Evals)
			if slot := diff.FirstSlot(); slot >= 0 {
				s.recordDetection(fi, base+slot)
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
