package atpg

import (
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

func TestPODEMFindsTestsForC17(t *testing.T) {
	n := circuits.C17()
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	for _, f := range faults {
		vec, out := eng.Generate(f)
		if out != TestFound {
			t.Errorf("%s: outcome %v, want test", f.Describe(n), out)
			continue
		}
		// Verify with both machines directly.
		if !detects(t, n, f, vec) {
			t.Errorf("%s: generated vector %v does not detect", f.Describe(n), vec)
		}
	}
}

// detects checks by simulation that the (possibly X-bearing) vector
// distinguishes the faulty machine at some primary output.
func detects(t *testing.T, n *netlist.Netlist, f fault.Fault, vec logic.Vector) bool {
	t.Helper()
	full := fillX(vec, 1)
	rep, err := faultsim.Run(n, fault.List{f}, []logic.Vector{full})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Status[0] == fault.Detected
}

func TestPODEMProvesRedundancy(t *testing.T) {
	// y = OR(a, NOT(a)): y s-a-1 is classic redundant logic.
	n := netlist.New("taut")
	a, _ := n.AddInput("a")
	na, _ := n.AddGate("na", netlist.Not, a)
	y, _ := n.AddGate("y", netlist.Or, a, na)
	_ = n.MarkOutput(y)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, out := eng.Generate(fault.Fault{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.One})
	if out != ProvenUntestable {
		t.Errorf("outcome = %v, want untestable", out)
	}
	// The complementary fault is testable.
	vec, out := eng.Generate(fault.Fault{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero})
	if out != TestFound {
		t.Fatalf("y s-a-0 outcome = %v, want test", out)
	}
	if !detects(t, n, fault.Fault{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero}, vec) {
		t.Error("y s-a-0 vector fails verification")
	}
}

func TestPODEMUnobservableGateIsUntestable(t *testing.T) {
	// Gate z drives nothing observable (not marked as output, no fanout
	// to outputs): faults on it must be untestable.
	n := netlist.New("dead")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	y, _ := n.AddGate("y", netlist.And, a, b)
	_, _ = n.AddGate("z", netlist.Or, a, b) // dangling
	_ = n.MarkOutput(y)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := n.Lookup("z")
	_, out := eng.Generate(fault.Fault{Kind: fault.StuckAt, Gate: z.ID, Pin: -1, Value: logic.Zero})
	if out != ProvenUntestable {
		t.Errorf("dangling gate fault = %v, want untestable", out)
	}
}

func TestGenerateTestsFullFlowC17(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	res, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 8, Seed: 2, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Detected != res.Coverage.Total {
		t.Errorf("coverage %d/%d", res.Coverage.Detected, res.Coverage.Total)
	}
	if res.Coverage.Untestable != 0 {
		t.Errorf("c17 has no redundant faults, got %d", res.Coverage.Untestable)
	}
	if len(res.Tests) == 0 || len(res.Tests) > 12 {
		t.Errorf("test count = %d, want small compacted set", len(res.Tests))
	}
	for _, vec := range res.Tests {
		if !vec.FullyKnown() {
			t.Error("emitted tests must be fully specified")
		}
	}
}

func TestGenerateTestsAdder(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	res, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 64, Seed: 5, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Effective() < 1.0 {
		t.Errorf("rca8 effective coverage = %.4f, want 1.0 (aborted=%d untestable=%d)",
			res.Coverage.Effective(), res.Coverage.Aborted, res.Coverage.Untestable)
	}
	if res.RandomDetected == 0 {
		t.Error("random phase should detect most adder faults")
	}
}

func TestCompactionPreservesCoverage(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 200, 9)
	before, err := faultsim.Run(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := CompactTests(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	after, err := faultsim.Run(n, faults, compact)
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage().Detected != before.Coverage().Detected {
		t.Errorf("compaction lost coverage: %d -> %d",
			before.Coverage().Detected, after.Coverage().Detected)
	}
	if len(compact) >= len(pats) {
		t.Errorf("compaction did not shrink: %d -> %d", len(pats), len(compact))
	}
}

func TestIdentifyUntestableMixed(t *testing.T) {
	// Circuit with a redundant cone: c = AND(a, NOT(a)) is constant 0;
	// OR(c, b) makes c's s-a-0 untestable but keeps b faults testable.
	n := netlist.New("mix")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na)
	y, _ := n.AddGate("y", netlist.Or, c, b)
	_ = n.MarkOutput(y)
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero}, // untestable (always 0)
		{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.One},  // testable
		{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero}, // testable
		{Kind: fault.StuckAt, Gate: b, Pin: -1, Value: logic.One},  // testable
	}
	cls, err := ClassifyFaults(n, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Outcome{ProvenUntestable, TestFound, TestFound, TestFound}
	for i, o := range cls.Outcomes {
		if o != want[i] {
			t.Errorf("fault %d (%s): outcome %v, want %v", i, faults[i].Describe(n), o, want[i])
		}
	}
}

func TestUntestableExclusionRaisesEffectiveCoverage(t *testing.T) {
	// The Section III.A experiment in miniature: coverage denominator
	// shrinks once untestable faults are identified.
	n := netlist.New("mix2")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na)
	y, _ := n.AddGate("y", netlist.Or, c, b)
	_ = n.MarkOutput(y)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	res, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Untestable == 0 {
		t.Fatal("expected untestable faults in redundant circuit")
	}
	if res.Coverage.Effective() <= res.Coverage.Raw() {
		t.Errorf("effective coverage %.3f must exceed raw %.3f",
			res.Coverage.Effective(), res.Coverage.Raw())
	}
}

func TestScanViewS27(t *testing.T) {
	n := circuits.S27()
	sv, err := ScanView(n)
	if err != nil {
		t.Fatal(err)
	}
	c := sv.Comb
	if c.IsSequential() {
		t.Fatal("scan view must be combinational")
	}
	if len(c.Inputs) != 4+3 {
		t.Errorf("scan view inputs = %d, want 7", len(c.Inputs))
	}
	if len(c.Outputs) != 1+3 {
		t.Errorf("scan view outputs = %d, want 4", len(c.Outputs))
	}
	if len(sv.PseudoInputs) != 3 || len(sv.PseudoOutputs) != 3 {
		t.Error("pseudo mappings incomplete")
	}
	// ATPG over the scan view must reach high coverage.
	faults := fault.Collapse(c, fault.AllStuckAt(c))
	res, err := GenerateTests(c, faults, FlowOptions{RandomPatterns: 32, Seed: 8, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Effective() < 0.99 {
		t.Errorf("s27 scan coverage = %.3f", res.Coverage.Effective())
	}
}

func TestScanViewCombinationalPassThrough(t *testing.T) {
	n := circuits.C17()
	sv, err := ScanView(n)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Comb != n {
		t.Error("combinational circuits must pass through unchanged")
	}
}

func TestScanViewPreservesCombinationalFunction(t *testing.T) {
	n := circuits.S27()
	sv, err := ScanView(n)
	if err != nil {
		t.Fatal(err)
	}
	// For equal input+state assignments, the scan view's outputs must
	// match one combinational evaluation of the original.
	orig, _ := sim.New(n)
	scan, _ := sim.New(sv.Comb)
	for trial := 0; trial < 20; trial++ {
		pats := faultsim.RandomPatterns(sv.Comb, 1, int64(trial))
		vec := pats[0]
		// Original: inputs then states.
		orig.SetInputs(vec[:4])
		for i := 0; i < 3; i++ {
			orig.SetState(i, vec[4+i])
		}
		orig.Run()
		scanOut := scan.Eval(vec)
		if scanOut[0] != orig.Outputs()[0] {
			t.Fatalf("trial %d: scan PO %v != original PO %v", trial, scanOut[0], orig.Outputs()[0])
		}
	}
}

func TestControllabilityMonotonicity(t *testing.T) {
	n := circuits.RippleCarryAdder(4)
	cc, err := ComputeControllability(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range n.Inputs {
		if cc.CC0[id] != 1 || cc.CC1[id] != 1 {
			t.Error("PI controllability must be 1")
		}
	}
	// Deeper gates cannot be cheaper than their cheapest fanin.
	for _, g := range n.Gates {
		if g.Type == netlist.Input {
			continue
		}
		minIn := 1 << 30
		for _, f := range g.Fanin {
			if cc.CC0[f] < minIn {
				minIn = cc.CC0[f]
			}
			if cc.CC1[f] < minIn {
				minIn = cc.CC1[f]
			}
		}
		if cc.CC0[g.ID] <= minIn && cc.CC1[g.ID] <= minIn {
			t.Errorf("gate %s controllability not increasing", g.Name)
		}
	}
}

func TestEngineRejectsSequential(t *testing.T) {
	if _, err := NewEngine(circuits.S27(), Options{}); err == nil {
		t.Error("NewEngine must reject sequential circuits")
	}
}

func TestPinFaultGeneration(t *testing.T) {
	// Fanout stem vs branch: a pin fault on one branch of a fanout net
	// must be testable independently.
	n := netlist.New("fan")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	c, _ := n.AddInput("c")
	y1, _ := n.AddGate("y1", netlist.And, a, b)
	y2, _ := n.AddGate("y2", netlist.Or, a, c)
	_ = n.MarkOutput(y1)
	_ = n.MarkOutput(y2)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Kind: fault.StuckAt, Gate: y1, Pin: 0, Value: logic.Zero}
	vec, out := eng.Generate(f)
	if out != TestFound {
		t.Fatalf("pin fault outcome %v", out)
	}
	if !detects(t, n, f, vec) {
		t.Error("pin fault vector fails verification")
	}
}

func TestScanViewSharedDriverAndPOOverlap(t *testing.T) {
	// Two DFFs share one D-driver, and that driver is also a primary
	// output: MarkOutput deduplication must not corrupt the pseudo
	// mappings.
	n := netlist.New("shared")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	d, _ := n.AddGate("d", netlist.And, a, b)
	q1, _ := n.AddGate("q1", netlist.DFF, d)
	q2, _ := n.AddGate("q2", netlist.DFF, d)
	y, _ := n.AddGate("y", netlist.Or, q1, q2)
	_ = n.MarkOutput(y)
	_ = n.MarkOutput(d) // driver doubles as functional PO
	sv, err := ScanView(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.PseudoOutputs) != 2 {
		t.Fatalf("pseudo outputs = %d, want 2", len(sv.PseudoOutputs))
	}
	// Both DFFs observe the same driver, so both indices must resolve to
	// the same (valid) output slot.
	for _, idx := range sv.PseudoOutputs {
		if idx < 0 || idx >= len(sv.Comb.Outputs) {
			t.Fatalf("pseudo output index %d out of range (outputs %d)", idx, len(sv.Comb.Outputs))
		}
	}
	if sv.PseudoOutputs[0] != sv.PseudoOutputs[1] {
		t.Error("shared driver must map both DFFs to one observation point")
	}
	// The view must still support full ATPG.
	faults := fault.Collapse(sv.Comb, fault.AllStuckAt(sv.Comb))
	res, err := GenerateTests(sv.Comb, faults, FlowOptions{RandomPatterns: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Effective() < 1 {
		t.Errorf("scan-view coverage = %v", res.Coverage.Effective())
	}
}
