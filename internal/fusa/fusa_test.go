package fusa

import (
	"reflect"
	"testing"

	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/obs"
)

// dupCircuit builds a duplicated cone with an XOR comparator — the
// canonical hardware safety mechanism. Returns the circuit plus the IDs
// of the functional gate, its duplicate and the shared input.
func dupCircuit(t *testing.T) (*SafetyCircuit, int, int, int) {
	t.Helper()
	n := netlist.New("dup")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	main, _ := n.AddGate("main", netlist.And, a, b)
	shadow, _ := n.AddGate("shadow", netlist.And, a, b)
	alarm, _ := n.AddGate("alarm", netlist.Xor, main, shadow)
	_ = n.MarkOutput(main)
	_ = n.MarkOutput(alarm)
	return &SafetyCircuit{
		N:                 n,
		FunctionalOutputs: []int{main},
		AlarmOutputs:      []int{alarm},
	}, main, shadow, a
}

func exhaustive(nInputs int) []logic.Vector {
	out := make([]logic.Vector, 1<<uint(nInputs))
	for v := range out {
		vec := make(logic.Vector, nInputs)
		for i := 0; i < nInputs; i++ {
			vec[i] = logic.FromBool(v&(1<<uint(i)) != 0)
		}
		out[v] = vec
	}
	return out
}

func TestClassifyDuplicationWithComparator(t *testing.T) {
	sc, main, shadow, a := dupCircuit(t)
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: main, Pin: -1, Value: logic.Zero},   // detected by comparator
		{Kind: fault.StuckAt, Gate: shadow, Pin: -1, Value: logic.Zero}, // detected, no violation
		{Kind: fault.StuckAt, Gate: a, Pin: -1, Value: logic.Zero},      // common cause: escapes
	}
	classes, err := Classify(sc, faults, exhaustive(2))
	if err != nil {
		t.Fatal(err)
	}
	if classes[0] != MultiPointDetected {
		t.Errorf("main fault = %v, want MPF-detected", classes[0])
	}
	if classes[1] != MultiPointDetected {
		t.Errorf("shadow fault = %v, want MPF-detected", classes[1])
	}
	if classes[2] != Residual {
		t.Errorf("common-cause input fault = %v, want residual", classes[2])
	}
}

func TestClassifyWithoutSM(t *testing.T) {
	sc, main, _, _ := dupCircuit(t)
	sc.AlarmOutputs = nil // remove the safety mechanism
	faults := fault.List{{Kind: fault.StuckAt, Gate: main, Pin: -1, Value: logic.Zero}}
	classes, err := Classify(sc, faults, exhaustive(2))
	if err != nil {
		t.Fatal(err)
	}
	if classes[0] != SinglePoint {
		t.Errorf("uncovered violating fault = %v, want single-point", classes[0])
	}
}

func TestClassifyLatentAndSafe(t *testing.T) {
	// c = AND(a, NOT(a)) is constant-0 inside the functional cone:
	// s-a-0 on c never manifests -> latent. A dangling gate is safe.
	n := netlist.New("latent")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na)
	y, _ := n.AddGate("y", netlist.Or, c, b)
	dang, _ := n.AddGate("dang", netlist.Or, a, b)
	_ = n.MarkOutput(y)
	_ = n.MarkOutput(dang) // keep netlist valid; treat as non-safety output
	sc := &SafetyCircuit{N: n, FunctionalOutputs: []int{y}}
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: dang, Pin: -1, Value: logic.Zero},
	}
	classes, err := Classify(sc, faults, exhaustive(2))
	if err != nil {
		t.Fatal(err)
	}
	if classes[0] != MultiPointLatent {
		t.Errorf("constant-node fault = %v, want latent", classes[0])
	}
	if classes[1] != Safe {
		t.Errorf("out-of-cone fault = %v, want safe", classes[1])
	}
}

func TestClassifyRejectsSequential(t *testing.T) {
	n := netlist.New("seq")
	in, _ := n.AddInput("in")
	q, _ := n.AddGate("q", netlist.DFF, in)
	_ = n.MarkOutput(q)
	sc := &SafetyCircuit{N: n, FunctionalOutputs: []int{q}}
	if _, err := Classify(sc, nil, nil); err == nil {
		t.Error("sequential circuit must be rejected")
	}
}

func TestMetricsAndASIL(t *testing.T) {
	classes := make([]FaultClass, 0, 100)
	for i := 0; i < 1; i++ {
		classes = append(classes, Residual)
	}
	for i := 0; i < 4; i++ {
		classes = append(classes, MultiPointLatent)
	}
	for i := 0; i < 95; i++ {
		classes = append(classes, MultiPointDetected)
	}
	m := ComputeMetrics(classes, 0.1)
	if m.SPFM != 0.99 {
		t.Errorf("SPFM = %v, want 0.99", m.SPFM)
	}
	wantLFM := 1 - 4.0/99.0
	if diff := m.LFM - wantLFM; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("LFM = %v, want %v", m.LFM, wantLFM)
	}
	if !m.MeetsASIL(ASILB) {
		t.Error("metrics must meet ASIL-B")
	}
	if !m.MeetsASIL(ASILD) {
		t.Error("SPFM 0.99 / LFM 0.96 must meet ASIL-D thresholds")
	}
	if m.PMHF != 0.1 {
		t.Errorf("PMHF = %v", m.PMHF)
	}
	// Degrade: many residuals fail ASIL-D.
	bad := append(append([]FaultClass{}, classes...), make([]FaultClass, 10)...)
	for i := 0; i < 10; i++ {
		bad[100+i] = SinglePoint
	}
	mb := ComputeMetrics(bad, 0.1)
	if mb.MeetsASIL(ASILD) {
		t.Error("10% single-point faults cannot meet ASIL-D")
	}
	if ComputeMetrics(nil, 1).SPFM != 0 {
		t.Error("empty metrics must be zero-valued")
	}
}

func TestASILStrings(t *testing.T) {
	if ASILD.String() != "ASIL-D" || QM.String() != "QM" {
		t.Error("ASIL naming wrong")
	}
	for _, c := range []FaultClass{Safe, SinglePoint, Residual, MultiPointDetected, MultiPointLatent} {
		if c.String() == "" {
			t.Error("class must have a name")
		}
	}
}

func TestCrossCheckFindsSeededMisclassifications(t *testing.T) {
	// The E12 experiment: a (simulated) buggy FI tool flips verdicts; the
	// ATPG cross-check must flag exactly the inconsistent ones.
	n := netlist.New("cc")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na) // constant 0
	y, _ := n.AddGate("y", netlist.Or, c, b)
	_ = n.MarkOutput(y)
	sc := &SafetyCircuit{N: n, FunctionalOutputs: []int{y}}
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero}, // untestable
		{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero}, // testable
	}
	classes, err := Classify(sc, faults, exhaustive(2))
	if err != nil {
		t.Fatal(err)
	}
	// Healthy tool: no suspicions, but the classification cost is visible.
	cc, err := CrossCheck(sc, faults, classes, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Suspicions) != 0 {
		t.Fatalf("healthy classification flagged: %+v", cc.Suspicions)
	}
	if len(cc.Outcomes) != len(faults) {
		t.Fatalf("cross-check outcomes = %d, want %d", len(cc.Outcomes), len(faults))
	}
	if cc.PODEMCalls != len(faults) {
		t.Errorf("cross-check PODEM calls = %d, want %d", cc.PODEMCalls, len(faults))
	}
	if cc.Outcomes[0] != atpg.ProvenUntestable || cc.Outcomes[1] != atpg.TestFound {
		t.Errorf("cross-check outcomes = %v, want [untestable test-found]", cc.Outcomes)
	}
	// The shared classification path must agree with IdentifyUntestable
	// on the same functional view.
	view := sc.N.Clone()
	view.Outputs = append([]int(nil), sc.FunctionalOutputs...)
	ident, err := atpg.IdentifyUntestable(view, faults, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ident {
		if ident[i] != cc.Outcomes[i] {
			t.Errorf("fault %d: IdentifyUntestable %v != CrossCheck %v", i, ident[i], cc.Outcomes[i])
		}
	}
	// Buggy tool #1: marks the untestable fault as residual.
	buggy := append([]FaultClass(nil), classes...)
	buggy[0] = Residual
	cc, err = CrossCheck(sc, faults, buggy, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Suspicions) != 1 || cc.Suspicions[0].FaultIndex != 0 {
		t.Errorf("expected exactly fault 0 flagged, got %+v", cc.Suspicions)
	}
	// Buggy tool #2: marks the testable violating fault as safe.
	buggy2 := append([]FaultClass(nil), classes...)
	buggy2[1] = Safe
	cc, err = CrossCheck(sc, faults, buggy2, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Suspicions) != 1 || cc.Suspicions[0].FaultIndex != 1 {
		t.Errorf("expected exactly fault 1 flagged, got %+v", cc.Suspicions)
	}
}

// TestCrossCheckRecallsVerdicts pins where the cross-check searches:
// when the functional outputs are the circuit's outputs it searches sc.N
// itself, so a second cross-check of the same circuit recalls every
// verdict from the netlist's verdict table and performs no search.
func TestCrossCheckRecallsVerdicts(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	sc := &SafetyCircuit{N: n, FunctionalOutputs: n.Outputs}
	classes, err := Classify(sc, faults, faultsim.RandomPatterns(n, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	searches := func() float64 {
		t.Helper()
		before := obs.Default.Snapshot()["atpg_podem_calls_total"]
		if _, err := CrossCheck(sc, faults, classes, atpg.Options{}); err != nil {
			t.Fatal(err)
		}
		return obs.Default.Snapshot()["atpg_podem_calls_total"] - before
	}
	if got := searches(); got != float64(len(faults)) {
		t.Fatalf("first cross-check searched %v faults, want all %d", got, len(faults))
	}
	if got := searches(); got != 0 {
		t.Errorf("second cross-check of the same netlist searched %v faults, want none", got)
	}
}

// badSites returns stuck-ats on an unknown gate and on an out-of-range
// pin of the circuit.
func badSites(sc *SafetyCircuit) []fault.Fault {
	return []fault.Fault{
		{Kind: fault.StuckAt, Gate: -1, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: 999, Pin: -1, Value: logic.One},
		{Kind: fault.StuckAt, Gate: sc.FunctionalOutputs[0], Pin: 5, Value: logic.Zero},
	}
}

// TestCrossCheckRejectsBadSites is the regression test for the index
// panic a stuck-at on an unknown gate or pin raised inside the PODEM
// classification: CrossCheck must return an error instead.
func TestCrossCheckRejectsBadSites(t *testing.T) {
	sc, _, _, _ := dupCircuit(t)
	for _, bad := range badSites(sc) {
		if _, err := CrossCheck(sc, fault.List{bad}, []FaultClass{Safe}, atpg.Options{}); err == nil {
			t.Errorf("CrossCheck(%+v) must error", bad)
		}
	}
}

// TestClassifyRejectsBadSites is the regression test for the index
// panic a stuck-at on an unknown gate or pin raised inside the
// fault-injection campaign: Classify must return an error instead.
func TestClassifyRejectsBadSites(t *testing.T) {
	sc, _, _, _ := dupCircuit(t)
	for _, bad := range badSites(sc) {
		if _, err := Classify(sc, fault.List{bad}, exhaustive(2)); err == nil {
			t.Errorf("Classify(%+v) must error", bad)
		}
	}
}

// badOutputs returns c17 safety circuits whose output split names a
// gate outside the netlist, once per group and direction.
func badOutputs(t *testing.T) []*SafetyCircuit {
	t.Helper()
	n := circuits.C17()
	return []*SafetyCircuit{
		{N: n, FunctionalOutputs: n.Outputs, AlarmOutputs: []int{9999}},
		{N: n, FunctionalOutputs: []int{-1}},
		{N: n, FunctionalOutputs: []int{n.NumGates()}, AlarmOutputs: n.Outputs[:1]},
	}
}

// TestCrossCheckRejectsBadInputs is the regression test for two panics
// that used to surface only after the whole PODEM pass or inside the
// engine setup: fewer classes than faults, and an output ID outside the
// circuit. CrossCheck must return an error for both, before any search.
func TestCrossCheckRejectsBadInputs(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	sc := &SafetyCircuit{N: n, FunctionalOutputs: n.Outputs}
	if _, err := CrossCheck(sc, faults, make([]FaultClass, len(faults)-1), atpg.Options{}); err == nil {
		t.Error("CrossCheck with fewer classes than faults must error")
	}
	for _, bad := range badOutputs(t) {
		if _, err := CrossCheck(bad, faults, make([]FaultClass, len(faults)), atpg.Options{}); err == nil {
			t.Errorf("CrossCheck(functional %v, alarm %v) must error", bad.FunctionalOutputs, bad.AlarmOutputs)
		}
	}
}

// TestClassifyRejectsBadOutputs is the regression test for the index
// panic an output ID outside the circuit raised inside the
// fault-injection campaign: Classify must return an error instead.
func TestClassifyRejectsBadOutputs(t *testing.T) {
	faults := fault.Collapse(circuits.C17(), fault.AllStuckAt(circuits.C17()))
	for _, bad := range badOutputs(t) {
		if _, err := Classify(bad, faults, exhaustive(5)); err == nil {
			t.Errorf("Classify(functional %v, alarm %v) must error", bad.FunctionalOutputs, bad.AlarmOutputs)
		}
	}
}

func TestFMECA(t *testing.T) {
	table := FMECA{
		{Component: "CPU", FailureMode: "lockup", Effect: "loss of control", Severity: 10, Occurrence: 2, Detection: 2},
		{Component: "SRAM", FailureMode: "bit flip", Effect: "wrong output", Severity: 7, Occurrence: 6, Detection: 3},
		{Component: "UART", FailureMode: "framing", Effect: "telemetry gap", Severity: 3, Occurrence: 4, Detection: 2},
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	if table[0].RPN() != 40 || table[1].RPN() != 126 {
		t.Error("RPN arithmetic wrong")
	}
	crit := table.Critical(100)
	if len(crit) != 1 || crit[0].Component != "SRAM" {
		t.Errorf("critical rows = %+v", crit)
	}
	bad := FMECA{{Component: "x", FailureMode: "y", Severity: 0, Occurrence: 1, Detection: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range score must fail validation")
	}
}

func TestClassifyCampaignOnGeneratedPatterns(t *testing.T) {
	// Integration: ATPG-quality patterns should classify the duplicated
	// design with no residual faults other than common-cause inputs.
	sc, _, _, _ := dupCircuit(t)
	faults := fault.Collapse(sc.N, fault.AllStuckAt(sc.N))
	pats := faultsim.RandomPatterns(sc.N, 16, 5)
	classes, err := Classify(sc, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(classes, 1)
	if m.Counts[MultiPointDetected] == 0 {
		t.Error("comparator must detect duplicated-cone faults")
	}
	// Residuals exist (shared inputs) — duplication alone is not ASIL-D.
	if m.Counts[Residual] == 0 {
		t.Error("common-cause faults must remain residual")
	}
}

func TestDuplicateSynthesis(t *testing.T) {
	n := netlist.New("base")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	y1, _ := n.AddGate("y1", netlist.And, a, b)
	y2, _ := n.AddGate("y2", netlist.Xor, a, b)
	_ = n.MarkOutput(y1)
	_ = n.MarkOutput(y2)
	sc, err := Duplicate(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.FunctionalOutputs) != 2 || len(sc.AlarmOutputs) != 1 {
		t.Fatalf("outputs = %d/%d", len(sc.FunctionalOutputs), len(sc.AlarmOutputs))
	}
	// Campaign: internal faults in one cone are detected; shared-input
	// faults remain residual.
	faults := fault.Collapse(sc.N, fault.AllStuckAt(sc.N))
	classes, err := Classify(sc, faults, faultsim.RandomPatterns(sc.N, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(classes, 1)
	if m.Counts[MultiPointDetected] == 0 {
		t.Error("duplication must detect cone faults")
	}
	if m.Counts[Residual] == 0 {
		t.Error("shared inputs must stay residual")
	}
	// Sequential circuits are rejected.
	seq := netlist.New("seq")
	in, _ := seq.AddInput("in")
	q, _ := seq.AddGate("q", netlist.DFF, in)
	_ = seq.MarkOutput(q)
	if _, err := Duplicate(seq); err == nil {
		t.Error("sequential must be rejected")
	}
}

// TestSharedVerdictsMatchFreshSearches runs the quality stage's test
// generation and the safety stage's cross-check over the same netlist,
// the way a holistic campaign job does, on every scan-viewed registry
// circuit. Each setting gets a fresh netlist: test generation alone,
// the cross-check alone, and the two one after the other in both
// orders. A PODEM search depends only on the netlist, the fault and the
// backtrack limit, so whichever runs first, every Result and every
// CrossCheckReport must equal the one computed alone.
func TestSharedVerdictsMatchFreshSearches(t *testing.T) {
	for _, name := range circuits.Names() {
		fresh := func() *netlist.Netlist {
			n := circuits.Registry[name]()
			if n.IsSequential() {
				sv, err := atpg.ScanView(n)
				if err != nil {
					t.Fatalf("%s: scan view: %v", name, err)
				}
				n = sv.Comb
			}
			return n
		}
		generate := func(n *netlist.Netlist) *atpg.Result {
			res, err := atpg.GenerateTests(n, fault.Collapse(n, fault.AllStuckAt(n)), atpg.FlowOptions{
				RandomPatterns: 64, Seed: 3, Compact: true,
			})
			if err != nil {
				t.Fatalf("%s: GenerateTests: %v", name, err)
			}
			return res
		}
		crossCheck := func(n *netlist.Netlist) *CrossCheckReport {
			faults := fault.Collapse(n, fault.AllStuckAt(n))
			sc := &SafetyCircuit{N: n, FunctionalOutputs: n.Outputs}
			classes, err := Classify(sc, faults, faultsim.RandomPatterns(n, 64, 4))
			if err != nil {
				t.Fatalf("%s: Classify: %v", name, err)
			}
			cc, err := CrossCheck(sc, faults, classes, atpg.Options{})
			if err != nil {
				t.Fatalf("%s: CrossCheck: %v", name, err)
			}
			return cc
		}
		genAlone, ccAlone := generate(fresh()), crossCheck(fresh())
		n := fresh()
		genFirst := generate(n)
		ccSecond := crossCheck(n)
		n = fresh()
		ccFirst := crossCheck(n)
		genSecond := generate(n)
		if !reflect.DeepEqual(genFirst, genAlone) {
			t.Errorf("%s: test generation before the cross-check differs from it alone", name)
		}
		if !reflect.DeepEqual(genSecond, genAlone) {
			t.Errorf("%s: test generation after the cross-check differs from it alone", name)
		}
		if !reflect.DeepEqual(ccSecond, ccAlone) {
			t.Errorf("%s: cross-check after test generation differs from it alone", name)
		}
		if !reflect.DeepEqual(ccFirst, ccAlone) {
			t.Errorf("%s: cross-check before test generation differs from it alone", name)
		}
	}
}
