package atpg

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// combRegistry returns the named registry circuit, scan-converted if
// sequential, so flow tests cover the whole registry.
func combRegistry(t testing.TB, name string) *netlist.Netlist {
	t.Helper()
	n := circuits.Registry[name]()
	if n.IsSequential() {
		sv, err := ScanView(n)
		if err != nil {
			t.Fatalf("%s: scan view: %v", name, err)
		}
		n = sv.Comb
	}
	return n
}

func TestGenerateTestsParallelDeterminism(t *testing.T) {
	// The acceptance bar: Status, Coverage and Tests byte-identical
	// serially and with budgets of 1, 3 and NumCPU-1 spare slots — and
	// the cost counters too, since the round schedule is fixed by fault
	// index, not worker timing. Each budget gets a fresh netlist, so it
	// searches instead of recalling the verdicts an earlier budget left
	// in the netlist's verdict table.
	for _, name := range []string{"c17", "s27", "rca8", "mul4"} {
		var ref *Result
		for _, spare := range []int{0, 1, 3, runtime.NumCPU() - 1} {
			n := combRegistry(t, name)
			faults := fault.Collapse(n, fault.AllStuckAt(n))
			res, err := GenerateTests(n, faults, FlowOptions{
				RandomPatterns: 16, Seed: 5, Compact: true,
				PODEM: Options{Spare: NewSlots(spare)},
			})
			at := fmt.Sprintf("%s spare=%d", name, spare)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res.Status, ref.Status) {
				t.Errorf("%s: Status differs from serial", at)
			}
			if !reflect.DeepEqual(res.Tests, ref.Tests) {
				t.Errorf("%s: Tests differ from serial (%d vs %d vectors)",
					at, len(res.Tests), len(ref.Tests))
			}
			if res.Coverage != ref.Coverage {
				t.Errorf("%s: Coverage %+v != serial %+v", at, res.Coverage, ref.Coverage)
			}
			if res.PODEMCalls != ref.PODEMCalls || res.Backtracks != ref.Backtracks ||
				res.RandomDetected != ref.RandomDetected || res.DropDetected != ref.DropDetected ||
				res.DiscardedTests != ref.DiscardedTests {
				t.Errorf("%s: counters (%d,%d,%d,%d,%d) != serial (%d,%d,%d,%d,%d)",
					at,
					res.PODEMCalls, res.Backtracks, res.RandomDetected, res.DropDetected, res.DiscardedTests,
					ref.PODEMCalls, ref.Backtracks, ref.RandomDetected, ref.DropDetected, ref.DiscardedTests)
			}
		}
	}
}

func TestGenerateTestsDropMatchesClassifyFaults(t *testing.T) {
	// Regression against one PODEM verdict per fault: with
	// RandomPatterns=0, test-and-drop must give every fault the status
	// its ClassifyFaults outcome maps to — a dropped fault is exactly a
	// fault PODEM proves testable. Equality is exact as long as nothing
	// aborts (an aborted fault's final status depends on which
	// collateral tests exist). ClassifyFaults runs on a fresh netlist,
	// so it searches every fault itself.
	statusOf := map[Outcome]fault.Status{
		TestFound:        fault.Detected,
		ProvenUntestable: fault.Untestable,
		AbortedLimit:     fault.Aborted,
	}
	for _, name := range []string{"c17", "rca8", "mul4", "dec4"} {
		n := combRegistry(t, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		drop, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 0, Seed: 2})
		if err != nil {
			t.Fatalf("%s drop: %v", name, err)
		}
		ref, err := ClassifyFaults(n.Clone(), faults, Options{})
		if err != nil {
			t.Fatalf("%s classify: %v", name, err)
		}
		want := make([]fault.Status, len(faults))
		aborted := 0
		for i, out := range ref.Outcomes {
			want[i] = statusOf[out]
			if out == AbortedLimit {
				aborted++
			}
		}
		if drop.Coverage.Aborted != 0 || aborted != 0 {
			t.Fatalf("%s: aborts (%d/%d) make the status comparison unsound — pick another circuit",
				name, drop.Coverage.Aborted, aborted)
		}
		for i := range drop.Status {
			if drop.Status[i] != want[i] {
				t.Errorf("%s: fault %s: drop %v != classified %v",
					name, faults[i].Describe(n), drop.Status[i], want[i])
			}
		}
		if drop.PODEMCalls >= ref.Calls {
			t.Errorf("%s: dropping must reduce PODEM calls: %d >= %d",
				name, drop.PODEMCalls, ref.Calls)
		}
		if ref.Calls != len(faults) {
			t.Errorf("%s: classification must target every fault: %d calls for %d faults",
				name, ref.Calls, len(faults))
		}
	}
}

func TestGenerateNotApplicableForTransientFaults(t *testing.T) {
	n := circuits.C17()
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []fault.Kind{fault.SEU, fault.SET} {
		vec, out := eng.Generate(fault.Fault{Kind: k, Gate: n.Outputs[0], Pin: -1})
		if out != NotApplicable {
			t.Errorf("%v fault outcome = %v, want not-applicable", k, out)
		}
		if vec != nil {
			t.Errorf("%v fault must not produce a vector", k)
		}
		if eng.Backtracks() != 0 {
			t.Errorf("%v fault charged %d backtracks without searching", k, eng.Backtracks())
		}
	}
	if NotApplicable.String() != "not-applicable" {
		t.Errorf("NotApplicable name = %q", NotApplicable.String())
	}
}

func TestGenerateTestsMixedFaultListNotPoisoned(t *testing.T) {
	// SEU/SET entries in a mixed list previously came back AbortedLimit,
	// inflating Coverage.Aborted and dragging Effective below 1 on fully
	// testable circuits. They must stay NotSimulated.
	n := circuits.C17()
	mixed := append(fault.Collapse(n, fault.AllStuckAt(n)),
		fault.Fault{Kind: fault.SEU, Gate: n.Outputs[0], Pin: -1},
		fault.Fault{Kind: fault.SET, Gate: n.Outputs[0], Pin: -1},
	)
	res, err := GenerateTests(n, mixed, FlowOptions{RandomPatterns: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Aborted != 0 {
		t.Errorf("transient faults counted as aborted (%d)", res.Coverage.Aborted)
	}
	for i := len(mixed) - 2; i < len(mixed); i++ {
		if res.Status[i] != fault.NotSimulated {
			t.Errorf("transient fault %d status = %v, want not-simulated", i, res.Status[i])
		}
	}
	// Every stuck-at fault on c17 is testable: effective coverage must
	// not be poisoned by the transient entries.
	if got := res.Coverage.Detected; got != len(mixed)-2 {
		t.Errorf("detected %d of %d stuck-at faults", got, len(mixed)-2)
	}
}

func TestCompactTestsNeverLowersCoverageOnRegistry(t *testing.T) {
	// Property: compaction discards only patterns that detect nothing
	// new, so the detected fault set — not just its size — is invariant,
	// on every registry circuit.
	for _, name := range circuits.Names() {
		n := combRegistry(t, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		pats := faultsim.RandomPatterns(n, 120, int64(7+len(name)))
		before, err := faultsim.Run(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compact, err := CompactTests(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: compact: %v", name, err)
		}
		after, err := faultsim.Run(n, faults, compact)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for fi := range faults {
			b := before.Status[fi] == fault.Detected
			a := after.Status[fi] == fault.Detected
			if b != a {
				t.Errorf("%s: fault %s: detected before=%v after=%v",
					name, faults[fi].Describe(n), b, a)
			}
		}
		if len(compact) > len(pats) {
			t.Errorf("%s: compaction grew the set: %d -> %d", name, len(pats), len(compact))
		}
	}
}

func TestClassifyFaultsSharedPath(t *testing.T) {
	// The redundant-cone circuit exercises all outcome kinds, and the
	// shared classification reports its search cost.
	n := netlist.New("mix")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na)
	y, _ := n.AddGate("y", netlist.Or, c, b)
	_ = n.MarkOutput(y)
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero},
		{Kind: fault.SEU, Gate: y, Pin: -1},
	}
	cls, err := ClassifyFaults(n, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Outcome{ProvenUntestable, TestFound, NotApplicable}
	if !reflect.DeepEqual(cls.Outcomes, want) {
		t.Errorf("outcomes = %v, want %v", cls.Outcomes, want)
	}
	if cls.Calls != 2 {
		t.Errorf("calls = %d, want 2 (NotApplicable excluded)", cls.Calls)
	}
	if cls.Backtracks <= 0 {
		t.Errorf("proving untestability must cost backtracks, got %d", cls.Backtracks)
	}
}

func TestGenerateTestsSessionCountersPopulated(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	res, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 32, Seed: 6, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimGateEvals <= 0 {
		t.Error("SimGateEvals must account the session's simulation cost")
	}
	// Every fault is accounted exactly once: detected by the random
	// phase, dropped before its search, or targeted by PODEM (which
	// includes discarded, untestable and aborted targets).
	if res.RandomDetected+res.DropDetected+res.PODEMCalls != len(faults) {
		t.Errorf("accounting hole: random %d + dropped %d + targeted %d != %d faults",
			res.RandomDetected, res.DropDetected, res.PODEMCalls, len(faults))
	}
	if res.DiscardedTests > res.PODEMCalls {
		t.Errorf("discarded targets (%d) cannot exceed PODEM calls (%d)",
			res.DiscardedTests, res.PODEMCalls)
	}
}

// TestClassifyFaultsRejectsBadSites is the regression test for the index
// panic that a stuck-at on an unknown gate or pin raised inside
// implication, taking ClassifyFaults and fusa.CrossCheck down.
func TestClassifyFaultsRejectsBadSites(t *testing.T) {
	n := circuits.C17()
	good := fault.Fault{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: -1, Value: logic.One}
	for _, bad := range []fault.Fault{
		{Kind: fault.StuckAt, Gate: -1, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: 999, Pin: -1, Value: logic.One},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: 7, Value: logic.Zero},
	} {
		if _, err := ClassifyFaults(n, fault.List{good, bad}, Options{}); err == nil {
			t.Errorf("ClassifyFaults(%+v) must error", bad)
		}
	}
}

// TestImplyGateEvalsCounted pins atpg_imply_gate_evals_total to the
// engine's exact per-search counts, each of which includes at least the
// site's evaluation in the search's first cone pass. Engine.Generate
// leaves no verdicts behind, so the classification searches every
// fault; the flow runs on a fresh netlist, where it searches too.
func TestImplyGateEvalsCounted(t *testing.T) {
	n := combRegistry(t, "mul4")
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, f := range faults {
		eng.Generate(f)
		if eng.ImplyGateEvals() < 1 {
			t.Fatalf("%s: %d implication evals, want at least 1", f.Describe(n), eng.ImplyGateEvals())
		}
		want += eng.ImplyGateEvals()
	}
	before := obsImplyEvals.Value()
	if _, err := ClassifyFaults(n, faults, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := obsImplyEvals.Value() - before; got != int64(want) {
		t.Errorf("classification counted %d implication evals, want %d", got, want)
	}
	before = obsImplyEvals.Value()
	if _, err := GenerateTests(combRegistry(t, "mul4"), faults, FlowOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if obsImplyEvals.Value() == before {
		t.Error("GenerateTests flushed no implication evals")
	}
}

// TestLentSlotsSharedBetweenSearches runs a classification pass and a
// test-generation flow at once on one shared budget of two slots, the
// way two jobs of one campaign share its idle workers. Both must match
// their serial runs, helpers must have started, and every slot must be
// back in the budget afterwards. Every run gets fresh netlists, so the
// lent runs search rather than recall the serial runs' verdicts.
func TestLentSlotsSharedBetweenSearches(t *testing.T) {
	mul4 := combRegistry(t, "mul4")
	cfaults := fault.Collapse(mul4, fault.AllStuckAt(mul4))
	rca8 := combRegistry(t, "rca8")
	gfaults := fault.Collapse(rca8, fault.AllStuckAt(rca8))
	classify := func(spare *Slots) (*Classification, error) {
		view := combRegistry(t, "mul4")
		view.Outputs = append([]int(nil), mul4.Outputs[1:]...)
		return ClassifyFaults(view, cfaults, Options{Spare: spare})
	}
	generate := func(spare *Slots) (*Result, error) {
		return GenerateTests(combRegistry(t, "rca8"), gfaults, FlowOptions{
			RandomPatterns: 8, Seed: 3, Compact: true, PODEM: Options{Spare: spare},
		})
	}
	wantC, err := classify(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := generate(nil)
	if err != nil {
		t.Fatal(err)
	}

	spare := NewSlots(2)
	lent := obsLentWorkers.Value()
	var (
		wg   sync.WaitGroup
		gotC *Classification
		gotG *Result
		errC error
		errG error
	)
	wg.Add(2)
	go func() { defer wg.Done(); gotC, errC = classify(spare) }()
	go func() { defer wg.Done(); gotG, errG = generate(spare) }()
	wg.Wait()
	if errC != nil || errG != nil {
		t.Fatalf("lent runs failed: classify %v, generate %v", errC, errG)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Error("lent classification differs from the serial one")
	}
	if !reflect.DeepEqual(gotG, wantG) {
		t.Error("lent test generation differs from the serial one")
	}
	if obsLentWorkers.Value() == lent {
		t.Error("no helper started on the shared budget")
	}
	if free := spare.free.Load(); free != 2 {
		t.Errorf("budget holds %d free slots after both searches, want 2", free)
	}
}

// TestVerdictTableSharesSearches runs the quality stage's flow and then a
// classification on one fresh mul8, the way a holistic campaign job runs
// its quality and safety stages. The classification recalls every
// verdict the flow took and searches only the rest, so the search
// counters move by the difference and the hit counter by the flow's
// verdicts. The reports still count every verdict. A second
// classification searches nothing and reports the same, and a pass at
// another backtrack limit has a table of its own and searches again.
func TestVerdictTableSharesSearches(t *testing.T) {
	n := combRegistry(t, "mul8")
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	flow, err := GenerateTests(n, faults, FlowOptions{RandomPatterns: 64, Seed: 1, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ calls, hits, backtracks int64 }
	read := func() counts {
		return counts{obsPODEMCalls.Value(), obsVerdictHits.Value(), obsBacktracks.Value()}
	}
	classify := func(opt Options) (*Classification, counts) {
		t.Helper()
		before := read()
		cls, err := ClassifyFaults(n, faults, opt)
		if err != nil {
			t.Fatal(err)
		}
		after := read()
		return cls, counts{after.calls - before.calls, after.hits - before.hits, after.backtracks - before.backtracks}
	}

	cls, got := classify(Options{})
	if flow.PODEMCalls == 0 || cls.Calls != len(faults) {
		t.Fatalf("flow took %d verdicts and classification %d of %d faults", flow.PODEMCalls, cls.Calls, len(faults))
	}
	want := counts{int64(cls.Calls - flow.PODEMCalls), int64(flow.PODEMCalls), int64(cls.Backtracks - flow.Backtracks)}
	if got != want {
		t.Errorf("classification after the flow moved (searches, hits, backtracks) by %+v, want %+v", got, want)
	}

	again, got := classify(Options{})
	if want := (counts{0, int64(cls.Calls), 0}); got != want {
		t.Errorf("second classification moved (searches, hits, backtracks) by %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(again, cls) {
		t.Error("second classification differs from the first")
	}

	tight, got := classify(Options{BacktrackLimit: 50})
	if want := (counts{int64(tight.Calls), 0, int64(tight.Backtracks)}); got != want {
		t.Errorf("classification at limit 50 moved (searches, hits, backtracks) by %+v, want %+v", got, want)
	}
}

// TestVerdictTableConcurrent classifies one fresh netlist from two
// goroutines at once, sharing a budget of two slots, so up to four
// searches of one fault can race to its slot, and every search fetches
// its cone from the clone's cold cone cache. Both results must equal a
// serial classification of another fresh netlist, and the table must
// hold one vector per TestFound slot: a duplicate search stores nothing.
func TestVerdictTableConcurrent(t *testing.T) {
	ref := combRegistry(t, "alu8")
	faults := fault.Collapse(ref, fault.AllStuckAt(ref))
	want, err := ClassifyFaults(ref, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := ref.Clone()
	spare := NewSlots(2)
	var (
		wg   sync.WaitGroup
		got  [2]*Classification
		errs [2]error
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ClassifyFaults(n, faults, Options{Spare: spare})
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: classification differs from the serial one", i)
		}
	}
	e, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vt := e.verdicts
	found := 0
	for _, v := range vt.slots {
		if v.known && v.out == TestFound {
			found++
		}
	}
	if len(vt.arena) != found*vt.width {
		t.Errorf("arena holds %d values for %d TestFound verdicts of %d inputs", len(vt.arena), found, vt.width)
	}
}
