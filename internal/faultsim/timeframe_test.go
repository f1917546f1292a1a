package faultsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// seedTimeFrameDigest pins every time-frame result — transient outcomes
// and cycle counts, campaign reports and sequential stuck-at statuses
// and costs — over the whole registry to the values of the original
// interpreted evaluators. Any behavioural drift of the time-frame engine
// changes it.
const seedTimeFrameDigest = "7e32719912ccb7449be0f5f5b6150f33c9ebc82d9e20c2f2d7073e82b74ab1da"

// everyGateTransients returns one SEU and one SET fault per gate,
// including primary inputs and flip-flops.
func everyGateTransients(n *netlist.Netlist) fault.List {
	var list fault.List
	for _, g := range n.Gates {
		list = append(list,
			fault.Fault{Kind: fault.SEU, Gate: g.ID, Pin: -1},
			fault.Fault{Kind: fault.SET, Gate: g.ID, Pin: -1})
	}
	return list
}

// halfInputs cuts every vector to half the circuit's inputs, so the
// remaining inputs stay X for the whole run.
func halfInputs(n *netlist.Netlist, stimuli []logic.Vector) []logic.Vector {
	out := make([]logic.Vector, len(stimuli))
	for i, v := range stimuli {
		out[i] = v[:len(n.Inputs)/2]
	}
	return out
}

func hashTransientReport(h hash.Hash, label string, r *TransientReport) {
	fmt.Fprintf(h, "%s %d %d %d %d %d\n", label, r.Injections,
		r.Counts[Masked], r.Counts[SDC], r.Counts[Latent], r.GateEvals)
}

// digestTimeFrames hashes every time-frame result for one circuit and
// stimulus set into h.
func digestTimeFrames(t *testing.T, h hash.Hash, n *netlist.Netlist, stimuli []logic.Vector) {
	t.Helper()
	transients := everyGateTransients(n)
	for _, f := range transients {
		for c := range stimuli {
			out, cycles, err := InjectTransient(n, stimuli, Injection{Fault: f, Cycle: c})
			if err != nil {
				t.Fatalf("%s: InjectTransient(%v, %d): %v", n.Name, f, c, err)
			}
			fmt.Fprintf(h, "%d %d %d %d %d\n", f.Kind, f.Gate, c, out, cycles)
		}
	}
	ex, err := ExhaustiveTransient(n, stimuli, transients)
	if err != nil {
		t.Fatalf("%s: ExhaustiveTransient: %v", n.Name, err)
	}
	hashTransientReport(h, "exhaustive", ex)
	rnd, err := RandomTransient(n, stimuli, transients, 100, 3)
	if err != nil {
		t.Fatalf("%s: RandomTransient: %v", n.Name, err)
	}
	hashTransientReport(h, "random", rnd)
	seq, err := SequentialRun(n, fault.AllStuckAt(n), stimuli)
	if err != nil {
		t.Fatalf("%s: SequentialRun: %v", n.Name, err)
	}
	fmt.Fprintf(h, "sequential %v %d\n", seq.Status, seq.GateEvals)
}

// TestTimeFramesMatchSeedDigest pins the time-frame engine byte for byte
// to the interpreted evaluators it replaced: every registry circuit,
// fully specified and X-laden stimuli, every gate as SEU and SET at
// every cycle, both campaign drivers, and uncollapsed sequential
// stuck-at simulation.
func TestTimeFramesMatchSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		n := circuits.Registry[name]()
		stimuli := RandomPatterns(n, 12, 5)
		fmt.Fprintf(h, "circuit %s\n", name)
		digestTimeFrames(t, h, n, stimuli)
		digestTimeFrames(t, h, n, halfInputs(n, stimuli))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedTimeFrameDigest {
		t.Errorf("time-frame digest = %s, want %s", got, seedTimeFrameDigest)
	}
}

// TestTimeFrameInjectionZeroAlloc pins the engine's steady state: once
// the golden trace is built, an injection — stuck-at output, pin and
// D-pin faults, SEU and SET — allocates nothing.
func TestTimeFrameInjectionZeroAlloc(t *testing.T) {
	n := circuits.S27()
	e, err := newTimeFrames(n, RandomPatterns(n, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	comb := -1 // a two-input combinational gate
	for _, g := range n.Gates {
		if comb < 0 && g.Type != netlist.DFF && len(g.Fanin) == 2 {
			comb = g.ID
		}
	}
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: comb, Pin: -1, Value: logic.One},
		{Kind: fault.StuckAt, Gate: comb, Pin: 1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: n.DFFs[0], Pin: 0, Value: logic.One},
		{Kind: fault.SEU, Gate: n.DFFs[1], Pin: -1},
		{Kind: fault.SET, Gate: comb, Pin: -1},
	}
	for _, f := range faults {
		if allocs := testing.AllocsPerRun(20, func() { e.run(f, 3) }); allocs != 0 {
			t.Errorf("%s: warm injection allocated %.1f times per run, want 0", f.Describe(n), allocs)
		}
	}
}

// TestTransientsRejectBadSitesBeforeSimulating is the regression test
// for injectors that panicked on unknown gates and rejected a stuck-at
// only after simulating up to the injection cycle.
func TestTransientsRejectBadSitesBeforeSimulating(t *testing.T) {
	n := circuits.S27()
	stimuli := RandomPatterns(n, 6, 1)
	for _, f := range []fault.Fault{
		{Kind: fault.SEU, Gate: -1},
		{Kind: fault.SET, Gate: 999},
		{Kind: fault.StuckAt, Gate: n.DFFs[0], Pin: -1, Value: logic.One},
	} {
		if _, cycles, err := InjectTransient(n, stimuli, Injection{Fault: f, Cycle: 3}); err == nil || cycles != 0 {
			t.Errorf("InjectTransient(%+v) = %d cycles, err %v; want an error before any cycle", f, cycles, err)
		}
		if _, err := ExhaustiveTransient(n, stimuli, fault.List{f}); err == nil {
			t.Errorf("ExhaustiveTransient(%+v) must error", f)
		}
		if _, err := RandomTransient(n, stimuli, fault.List{f}, 10, 1); err == nil {
			t.Errorf("RandomTransient(%+v) must error", f)
		}
	}
	_, err := SequentialRun(n, fault.List{{Kind: fault.StuckAt, Gate: 999, Pin: -1}}, stimuli)
	if err == nil || strings.Count(err.Error(), "faultsim:") != 1 {
		t.Errorf("SequentialRun error = %v, want one faultsim-prefixed error", err)
	}
}

// TestRandomTransientRejectsEmptySpace is the regression test for the
// Intn panic on an empty fault list or empty stimuli.
func TestRandomTransientRejectsEmptySpace(t *testing.T) {
	n := circuits.S27()
	stimuli := RandomPatterns(n, 6, 1)
	seus := fault.AllSEU(n)
	if _, err := RandomTransient(n, stimuli, nil, 10, 1); err == nil {
		t.Error("sampling from an empty fault list must error")
	}
	if _, err := RandomTransient(n, nil, seus, 10, 1); err == nil {
		t.Error("sampling from empty stimuli must error")
	}
	rep, err := RandomTransient(n, nil, nil, 0, 1)
	if err != nil || rep.Injections != 0 {
		t.Errorf("zero samples = %+v, %v; want an empty report", rep, err)
	}
}
