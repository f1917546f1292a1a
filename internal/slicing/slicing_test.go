package slicing

import (
	"reflect"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

func TestAcceleratedMatchesReference(t *testing.T) {
	for _, build := range []func() *netlist.Netlist{
		circuits.C17,
		func() *netlist.Netlist { return circuits.RippleCarryAdder(8) },
		func() *netlist.Netlist { return circuits.ArrayMultiplier(4) },
		func() *netlist.Netlist {
			return circuits.RandomCombinational(circuits.RandomOptions{Inputs: 10, Gates: 300, Outputs: 8, Seed: 21})
		},
	} {
		n := build()
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		pats := faultsim.RandomPatterns(n, 100, 13)
		ref, err := faultsim.Run(n, faults, pats)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := AcceleratedRun(n, faults, pats)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			refDet := ref.Status[i] == fault.Detected
			accDet := acc.Status[i] == fault.Detected
			if refDet != accDet {
				t.Errorf("%s: fault %s: reference detected=%v, sliced detected=%v",
					n.Name, faults[i].Describe(n), refDet, accDet)
			}
		}
	}
}

func TestSpeedupIsSubstantial(t *testing.T) {
	// The E12 claim: sliced injection must beat naive full-pass cost.
	n := circuits.RandomCombinational(circuits.RandomOptions{Inputs: 16, Gates: 1500, Outputs: 8, Seed: 5})
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 50, 3)
	acc, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Speedup() < 5 {
		t.Errorf("speedup = %.1fx, want >= 5x (actual evals %d vs baseline %d)",
			acc.Speedup(), acc.ActualGateEvals, acc.BaselineGateEvals)
	}
	if acc.Skipped == 0 {
		t.Error("activation check should skip some injections")
	}
}

func TestPruneUnobservable(t *testing.T) {
	n := netlist.New("dangling")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	y, _ := n.AddGate("y", netlist.And, a, b)
	z, _ := n.AddGate("z", netlist.Or, a, b) // never observed
	_ = n.MarkOutput(y)
	faults := fault.List{
		{Kind: fault.StuckAt, Gate: y, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: z, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: z, Pin: -1, Value: logic.One},
	}
	kept, pruned := PruneUnobservable(n, faults)
	if len(kept) != 1 || len(pruned) != 2 {
		t.Fatalf("kept=%d pruned=%d, want 1/2", len(kept), len(pruned))
	}
	if kept[0].Gate != y {
		t.Error("wrong fault kept")
	}
	// The accelerated campaign must also count them as pruned and never
	// detect them.
	res, err := AcceleratedRun(n, faults, faultsim.RandomPatterns(n, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 2 {
		t.Errorf("campaign pruned = %d, want 2", res.Pruned)
	}
	if res.Status[1] == fault.Detected || res.Status[2] == fault.Detected {
		t.Error("pruned faults must stay undetected")
	}
}

func TestAcceleratedRejectsSequential(t *testing.T) {
	if _, err := AcceleratedRun(circuits.S27(), nil, nil); err == nil {
		t.Error("sequential circuits must be rejected")
	}
}

func TestStaticSliceSizes(t *testing.T) {
	n := circuits.C17()
	stats := StaticSliceSizes(n)
	if len(stats) != 2 {
		t.Fatalf("stats count = %d", len(stats))
	}
	for _, s := range stats {
		if s.ConeGates <= 0 || s.Fraction <= 0 || s.Fraction > 1 {
			t.Errorf("bad slice stats %+v", s)
		}
	}
	// In c17 both output cones are strictly smaller than the circuit.
	for _, s := range stats {
		if s.Fraction >= 1 {
			t.Errorf("cone of %s covers whole circuit", s.Output)
		}
	}
}

func TestSkipAccounting(t *testing.T) {
	// A constant-0 net: s-a-0 there is never activated, so every pattern
	// adds to Skipped.
	n := netlist.New("const")
	a, _ := n.AddInput("a")
	na, _ := n.AddGate("na", netlist.Not, a)
	c, _ := n.AddGate("c", netlist.And, a, na) // constant 0
	y, _ := n.AddGate("y", netlist.Or, c, a)
	_ = n.MarkOutput(y)
	faults := fault.List{{Kind: fault.StuckAt, Gate: c, Pin: -1, Value: logic.Zero}}
	pats := faultsim.RandomPatterns(n, 10, 2)
	res, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 10 {
		t.Errorf("skipped = %d, want 10", res.Skipped)
	}
	if res.Injections != 0 {
		t.Errorf("injections = %d, want 0", res.Injections)
	}
	if res.Status[0] != fault.Undetected {
		t.Errorf("status = %v", res.Status[0])
	}
}

func TestDetectedFaultsAreDropped(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 64, 9)
	res, err := AcceleratedRun(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	// With dropping, total injections must be far below faults×patterns.
	if res.Injections >= int64(len(faults))*int64(len(pats)) {
		t.Errorf("no dropping evident: %d injections", res.Injections)
	}
	if res.Detected == 0 {
		t.Error("some faults must be detected")
	}
}

// TestAcceleratedRunRejectsBadSites is the regression test for stuck-ats
// outside the circuit: an unknown gate was silently counted as pruned
// and an out-of-range pin panicked. Both must be errors.
func TestAcceleratedRunRejectsBadSites(t *testing.T) {
	n := circuits.C17()
	pats := faultsim.RandomPatterns(n, 8, 1)
	out := n.Outputs[0]
	for _, bad := range []fault.Fault{
		{Kind: fault.StuckAt, Gate: -1, Pin: -1, Value: logic.Zero},
		{Kind: fault.StuckAt, Gate: 999, Pin: -1, Value: logic.One},
		{Kind: fault.StuckAt, Gate: out, Pin: len(n.Gate(out).Fanin), Value: logic.Zero},
	} {
		if res, err := AcceleratedRun(n, fault.List{bad}, pats); err == nil {
			t.Errorf("AcceleratedRun(%+v) = %+v, want an error", bad, res)
		}
	}
}

// TestShortVectorsReadX is the regression test for short vectors reading
// the previous pattern's inputs: an input past a vector's end reads X in
// that pattern, so a short vector runs exactly as its X-padded copy and
// reversing the pattern list leaves every verdict unchanged.
func TestShortVectorsReadX(t *testing.T) {
	n := circuits.C17()
	faults := fault.AllStuckAt(n)
	ones := logic.Vector{logic.One, logic.One, logic.One, logic.One, logic.One}
	short := logic.Vector{logic.Zero, logic.Zero}
	padded := logic.Vector{logic.Zero, logic.Zero, logic.X, logic.X, logic.X}
	run := func(pats ...logic.Vector) *Result {
		t.Helper()
		res, err := AcceleratedRun(n, faults, pats)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fwd := run(ones, short)
	if want := run(ones, padded); !reflect.DeepEqual(fwd, want) {
		t.Errorf("short vector result %+v, want the X-padded %+v", fwd, want)
	}
	if rev := run(short, ones); !reflect.DeepEqual(fwd.Status, rev.Status) {
		t.Errorf("reversed patterns changed the verdicts:\n%v\n%v", fwd.Status, rev.Status)
	}
}

// TestAcceleratedRunAllocsFlatInPatterns pins the packed good machine's
// allocation profile: a run allocates the same at 64 and at 4096
// patterns. Input 0 is held at X, so its stuck-ats are never activated
// and stay live through every block.
func TestAcceleratedRunAllocsFlatInPatterns(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	allocs := func(count int) float64 {
		pats := faultsim.RandomPatterns(n, count, 1)
		for _, p := range pats {
			p[0] = logic.X
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := AcceleratedRun(n, faults, pats); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("AcceleratedRun allocates %.0f objects at 64 patterns but %.0f at 4096", small, large)
	}
}
