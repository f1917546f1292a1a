package faultsim

import (
	"math"
	"strings"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

func allBinaryPatterns(inputs int) []logic.Vector {
	out := make([]logic.Vector, 1<<uint(inputs))
	for v := range out {
		vec := make(logic.Vector, inputs)
		for i := 0; i < inputs; i++ {
			vec[i] = logic.FromBool(v&(1<<uint(i)) != 0)
		}
		out[v] = vec
	}
	return out
}

func TestC17ExhaustiveCoverageIs100(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	rep, err := Run(n, faults, allBinaryPatterns(5))
	if err != nil {
		t.Fatal(err)
	}
	cov := rep.Coverage()
	// c17 is fully testable: exhaustive patterns must detect all
	// collapsed stuck-at faults.
	if cov.Detected != cov.Total {
		for i, s := range rep.Status {
			if s != fault.Detected {
				t.Logf("undetected: %s", faults[i].Describe(n))
			}
		}
		t.Fatalf("c17 coverage = %d/%d, want full", cov.Detected, cov.Total)
	}
	if cov.Raw() != 1.0 {
		t.Errorf("Raw() = %v", cov.Raw())
	}
}

func TestCollapseShrinksList(t *testing.T) {
	n := circuits.C17()
	full := fault.AllStuckAt(n)
	collapsed := fault.Collapse(n, full)
	if len(collapsed) >= len(full) {
		t.Errorf("collapse did not shrink: %d -> %d", len(full), len(collapsed))
	}
	// Collapsing must preserve detectability: every collapsed-list
	// coverage equals full-list coverage under the same patterns.
	pats := allBinaryPatterns(5)
	repFull, err := Run(n, full, pats)
	if err != nil {
		t.Fatal(err)
	}
	repColl, err := Run(n, collapsed, pats)
	if err != nil {
		t.Fatal(err)
	}
	if repFull.Coverage().Raw() != 1.0 || repColl.Coverage().Raw() != 1.0 {
		t.Errorf("coverage differs: full=%v collapsed=%v",
			repFull.Coverage().Raw(), repColl.Coverage().Raw())
	}
}

func TestFaultDroppingFirstDetection(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	rep, err := Run(n, faults, allBinaryPatterns(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rep.Status {
		if s == fault.Detected && rep.DetectedBy[i] < 0 {
			t.Errorf("fault %d detected but DetectedBy unset", i)
		}
		if s != fault.Detected && rep.DetectedBy[i] >= 0 {
			t.Errorf("fault %d undetected but DetectedBy set", i)
		}
	}
}

func TestRunRejectsSequential(t *testing.T) {
	if _, err := Run(circuits.S27(), nil, nil); err == nil {
		t.Error("Run must reject sequential circuits")
	}
}

func TestRedundantFaultStaysUndetected(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: s-a-1 on y is undetectable.
	n := netlist.New("taut")
	a, _ := n.AddInput("a")
	na, _ := n.AddGate("na", netlist.Not, a)
	y, _ := n.AddGate("y", netlist.Or, a, na)
	_ = n.MarkOutput(y)
	faults := fault.List{{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.One}}
	rep, err := Run(n, faults, allBinaryPatterns(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status[0] != fault.Undetected {
		t.Errorf("redundant fault status = %v, want undetected", rep.Status[0])
	}
}

func TestSEUInjectionOutcomes(t *testing.T) {
	// Shift register of length 2 feeding an output: an SEU in q1 at an
	// early cycle propagates to the output (SDC); state then re-converges.
	n := netlist.New("shift2")
	in, _ := n.AddInput("in")
	q1, _ := n.AddGate("q1", netlist.DFF, in)
	q2, _ := n.AddGate("q2", netlist.DFF, q1)
	_ = n.MarkOutput(q2)
	stimuli := make([]logic.Vector, 6)
	for i := range stimuli {
		stimuli[i] = logic.Vector{logic.Zero}
	}
	out, cycles, err := InjectTransient(n, stimuli, Injection{
		Fault: fault.Fault{Kind: fault.SEU, Gate: q1}, Cycle: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != SDC {
		t.Errorf("SEU in shift register = %v, want SDC", out)
	}
	// The flip lands in q2 after cycle 1's latch and reaches the output
	// at cycle 2: the SDC early exit must stop after 3 simulated cycles.
	if cycles != 3 {
		t.Errorf("SDC run simulated %d cycles, want 3", cycles)
	}
	// An SEU at the very last cycle in q2's shadow can at most be latent:
	// inject into q1 at the final cycle — the flipped value never reaches
	// the output before the run ends, but the final state differs.
	out, cycles, err = InjectTransient(n, stimuli, Injection{
		Fault: fault.Fault{Kind: fault.SEU, Gate: q1}, Cycle: len(stimuli) - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != Latent {
		t.Errorf("last-cycle SEU = %v, want latent", out)
	}
	if cycles != len(stimuli) {
		t.Errorf("full run simulated %d cycles, want %d", cycles, len(stimuli))
	}
}

func TestSEUMaskedByLogic(t *testing.T) {
	// q feeds AND(q, zero-input): flipping q is masked at the output and
	// the state is overwritten next cycle by the constant input.
	n := netlist.New("masked")
	in, _ := n.AddInput("in")
	q, _ := n.AddGate("q", netlist.DFF, in)
	blocker, _ := n.AddInput("blk")
	y, _ := n.AddGate("y", netlist.And, q, blocker)
	_ = n.MarkOutput(y)
	stimuli := []logic.Vector{
		{logic.Zero, logic.Zero},
		{logic.Zero, logic.Zero},
		{logic.Zero, logic.Zero},
	}
	out, _, err := InjectTransient(n, stimuli, Injection{
		Fault: fault.Fault{Kind: fault.SEU, Gate: q}, Cycle: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != Masked {
		t.Errorf("blocked SEU = %v, want masked", out)
	}
}

func TestSETInjection(t *testing.T) {
	n := circuits.S27()
	stimuli := RandomPatterns(n, 10, 4)
	sets := fault.AllSET(n)
	rep, err := ExhaustiveTransient(n, stimuli, sets[:4])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 4*len(stimuli) {
		t.Errorf("injections = %d", rep.Injections)
	}
	total := 0
	for _, c := range rep.Counts {
		total += c
	}
	if total != rep.Injections {
		t.Error("outcome counts must sum to injections")
	}
}

func TestInjectionCycleBounds(t *testing.T) {
	n := circuits.S27()
	_, _, err := InjectTransient(n, RandomPatterns(n, 3, 1), Injection{
		Fault: fault.Fault{Kind: fault.SEU, Gate: n.DFFs[0]}, Cycle: 99,
	})
	if err == nil {
		t.Error("out-of-range cycle must error")
	}
	_, _, err = InjectTransient(n, RandomPatterns(n, 3, 1), Injection{
		Fault: fault.Fault{Kind: fault.StuckAt, Gate: 0}, Cycle: 0,
	})
	if err == nil {
		t.Error("InjectTransient must reject permanent faults")
	}
}

func TestRandomVsExhaustiveAgreeWithinCI(t *testing.T) {
	n := circuits.S27()
	stimuli := RandomPatterns(n, 20, 7)
	seus := fault.AllSEU(n)
	exact, err := ExhaustiveTransient(n, stimuli, seus)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RandomTransient(n, stimuli, seus, 200, 99)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonCI(sampled.Counts[SDC], sampled.Injections, 2.58)
	if exact.SDCRate() < lo-0.05 || exact.SDCRate() > hi+0.05 {
		t.Errorf("exhaustive SDC rate %.3f outside sampled 99%% CI [%.3f, %.3f]",
			exact.SDCRate(), lo, hi)
	}
	// The sampled campaign must be cheaper than the exhaustive one here.
	if sampled.GateEvals >= exact.GateEvals {
		t.Skip("sample count chosen larger than exhaustive space; cost claim not applicable")
	}
}

func TestWilsonCIProperties(t *testing.T) {
	lo, hi := WilsonCI(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty sample must give [0,1]")
	}
	lo, hi = WilsonCI(50, 100, 1.96)
	if !(lo > 0.39 && lo < 0.51 && hi > 0.49 && hi < 0.61) {
		t.Errorf("WilsonCI(50,100) = [%v, %v]", lo, hi)
	}
	if lo2, _ := WilsonCI(0, 100, 1.96); lo2 != 0 {
		t.Error("lower bound must clamp at 0")
	}
	if _, hi2 := WilsonCI(100, 100, 1.96); hi2 < 0.96 || hi2 > 1 {
		t.Errorf("upper bound at p=1 should approach 1, got %v", hi2)
	}
	// Wider samples shrink the interval.
	lo1, hi1 := WilsonCI(10, 20, 1.96)
	lo2, hi2 := WilsonCI(500, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Error("CI must shrink with sample size")
	}
}

func TestSampleSizeForMargin(t *testing.T) {
	n := SampleSizeForMargin(0.01, 1.96)
	if n < 9000 || n > 11000 {
		t.Errorf("n(1%%, 95%%) = %d, want ≈9604", n)
	}
	if SampleSizeForMargin(0, 1.96) != math.MaxInt32 {
		t.Error("zero margin must return MaxInt32")
	}
	if SampleSizeForMargin(0.1, 1.96) >= SampleSizeForMargin(0.01, 1.96) {
		t.Error("larger margin needs fewer samples")
	}
}

func TestRandomPatternsDeterministic(t *testing.T) {
	n := circuits.C17()
	a := RandomPatterns(n, 10, 42)
	b := RandomPatterns(n, 10, 42)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("same seed must give same patterns")
		}
	}
	c := RandomPatterns(n, 10, 43)
	same := true
	for i := range a {
		if a[i].String() != c[i].String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical patterns")
	}
}

func TestMultiplierCoverageReasonable(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	rep, err := Run(n, faults, RandomPatterns(n, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	if cov := rep.Coverage().Raw(); cov < 0.90 {
		t.Errorf("mul4 random-pattern coverage = %.3f, want > 0.90", cov)
	}
}

func TestSequentialRunDetectsStuckFaults(t *testing.T) {
	n := circuits.Counter(4)
	stimuli := make([]logic.Vector, 20)
	for i := range stimuli {
		stimuli[i] = logic.Vector{logic.One}
	}
	// Output faults on every gate.
	var faults fault.List
	for _, g := range n.Gates {
		faults = append(faults,
			fault.Fault{Kind: fault.StuckAt, Gate: g.ID, Pin: -1, Value: logic.Zero},
			fault.Fault{Kind: fault.StuckAt, Gate: g.ID, Pin: -1, Value: logic.One},
		)
	}
	rep, err := SequentialRun(n, faults, stimuli)
	if err != nil {
		t.Fatal(err)
	}
	cov := rep.Coverage()
	// A free-running counter observes all its state bits: coverage must
	// be near-complete (the enable input s-a-1 is undetectable since the
	// stimulus already holds it at 1).
	if cov.Raw() < 0.9 {
		t.Errorf("sequential coverage = %.2f (%d/%d)", cov.Raw(), cov.Detected, cov.Total)
	}
	// The en s-a-1 fault must be among the undetected.
	enSA1 := -1
	for fi, f := range faults {
		if f.Gate == n.Inputs[0] && f.Value == logic.One {
			enSA1 = fi
		}
	}
	if rep.Status[enSA1] == fault.Detected {
		t.Error("en s-a-1 cannot be detected by an all-ones stimulus")
	}
}

func TestSequentialRunStuckDFF(t *testing.T) {
	// A stuck flip-flop in the counter freezes its bit: detected when
	// the golden counter toggles it.
	n := circuits.Counter(3)
	stimuli := make([]logic.Vector, 8)
	for i := range stimuli {
		stimuli[i] = logic.Vector{logic.One}
	}
	f := fault.List{{Kind: fault.StuckAt, Gate: n.DFFs[0], Pin: -1, Value: logic.Zero}}
	rep, err := SequentialRun(n, f, stimuli)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status[0] != fault.Detected {
		t.Error("stuck LSB flip-flop must be detected within 8 cycles")
	}
}

func TestDetectedByIsMinimumSlotAcrossOutputs(t *testing.T) {
	// Regression: the engine used to take the lowest set bit of the
	// *first differing output* instead of the minimum slot across all
	// outputs. Here output o1 (compared first) detects g s-a-0 only at
	// pattern 2, while o2 already detects it at pattern 1.
	n := netlist.New("multiout")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	g, _ := n.AddGate("g", netlist.Buf, a)
	o1, _ := n.AddGate("o1", netlist.And, g, b)
	o2, _ := n.AddGate("o2", netlist.Buf, g)
	_ = n.MarkOutput(o1)
	_ = n.MarkOutput(o2)
	patterns := []logic.Vector{
		{logic.Zero, logic.Zero}, // no difference anywhere
		{logic.One, logic.Zero},  // o2 differs, o1 masked by b=0
		{logic.One, logic.One},   // both differ
	}
	faults := fault.List{{Kind: fault.StuckAt, Gate: g, Pin: -1, Value: logic.Zero}}
	for name, run := range map[string]func(*netlist.Netlist, fault.List, []logic.Vector) (*Report, error){
		"cone": Run, "full": RunFull,
	} {
		rep, err := run(n, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status[0] != fault.Detected {
			t.Fatalf("%s: fault undetected", name)
		}
		if rep.DetectedBy[0] != 1 {
			t.Errorf("%s: DetectedBy = %d, want 1 (minimum slot across all outputs)",
				name, rep.DetectedBy[0])
		}
	}
}

// xorFeedback builds: q = DFF(g), g = XOR(q, in), o = BUF(q).
func xorFeedback(t *testing.T) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseBench("xorfb", strings.NewReader(`
INPUT(in)
OUTPUT(o)
q = DFF(g)
g = XOR(q, in)
o = BUF(q)
`))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSequentialRunInjectsPinFaults(t *testing.T) {
	// Regression: input-pin faults used to be silently simulated
	// fault-free and reported Undetected. With an all-zero stimulus the
	// golden machine never raises the output, so any detection can only
	// come from the injected pin fault.
	n := xorFeedback(t)
	g, _ := n.Lookup("g")
	q, _ := n.Lookup("q")
	stimuli := make([]logic.Vector, 5)
	for i := range stimuli {
		stimuli[i] = logic.Vector{logic.Zero}
	}
	faults := fault.List{
		// g's pin 1 is the primary input "in": stuck-at-1 makes g=XOR(q,1).
		{Kind: fault.StuckAt, Gate: g.ID, Pin: 1, Value: logic.One},
		// q's D pin stuck-at-1 latches 1 regardless of g.
		{Kind: fault.StuckAt, Gate: q.ID, Pin: 0, Value: logic.One},
	}
	rep, err := SequentialRun(n, faults, stimuli)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range faults {
		if rep.Status[fi] != fault.Detected {
			t.Errorf("pin fault %s: status = %v, want detected",
				f.Describe(n), rep.Status[fi])
		}
	}
	// A pin index outside the gate's fanin must be a loud error, never a
	// silently wrong status.
	bad := fault.List{{Kind: fault.StuckAt, Gate: g.ID, Pin: 7, Value: logic.One}}
	if _, err := SequentialRun(n, bad, stimuli); err == nil {
		t.Error("out-of-range pin must error")
	}
}

func TestRunRejectsOutOfRangeSites(t *testing.T) {
	n := circuits.C17()
	pats := allBinaryPatterns(5)
	bad := fault.List{{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: 9, Value: logic.One}}
	if _, err := Run(n, bad, pats); err == nil {
		t.Error("Run must reject out-of-range pins")
	}
	if _, err := RunFull(n, bad, pats); err == nil {
		t.Error("RunFull must reject out-of-range pins")
	}
	if _, err := Run(n, fault.List{{Kind: fault.StuckAt, Gate: -3, Pin: -1}}, pats); err == nil {
		t.Error("Run must reject unknown gate ids")
	}
}

func TestTransientCampaignChargesActualCycles(t *testing.T) {
	// Regression: campaigns used to charge NumGates × len(stimuli) per
	// injection even when an SDC stopped the run early. The exhaustive
	// report must equal the sum of per-injection actual cycles.
	n := netlist.New("shift2obs")
	in, _ := n.AddInput("in")
	q1, _ := n.AddGate("q1", netlist.DFF, in)
	q2, _ := n.AddGate("q2", netlist.DFF, q1)
	o, _ := n.AddGate("o", netlist.Buf, q2)
	_ = n.MarkOutput(o)
	stimuli := make([]logic.Vector, 6)
	for i := range stimuli {
		stimuli[i] = logic.Vector{logic.Zero}
	}
	const comb = 1 // only the Buf is evaluated per cycle
	faults := fault.List{{Kind: fault.SEU, Gate: q1}, {Kind: fault.SEU, Gate: q2}}
	rep, err := ExhaustiveTransient(n, stimuli, faults)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, f := range faults {
		for c := range stimuli {
			_, cycles, err := InjectTransient(n, stimuli, Injection{Fault: f, Cycle: c})
			if err != nil {
				t.Fatal(err)
			}
			want += int64(cycles) * comb
		}
	}
	if rep.GateEvals != want {
		t.Errorf("GateEvals = %d, want %d (sum of actual cycles)", rep.GateEvals, want)
	}
	naive := int64(rep.Injections) * int64(len(stimuli)) * comb
	if rep.GateEvals >= naive {
		t.Errorf("GateEvals = %d must be below the naive charge %d: SDC runs exit early",
			rep.GateEvals, naive)
	}
}
