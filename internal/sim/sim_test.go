package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rescue/internal/circuits"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

func TestC17TruthSpotChecks(t *testing.T) {
	n := circuits.C17()
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Reference model of c17 (NAND network).
	ref := func(g1, g2, g3, g6, g7 bool) (bool, bool) {
		nand := func(a, b bool) bool { return !(a && b) }
		g10 := nand(g1, g3)
		g11 := nand(g3, g6)
		g16 := nand(g2, g11)
		g19 := nand(g11, g7)
		return nand(g10, g16), nand(g16, g19)
	}
	for v := 0; v < 32; v++ {
		bits := make(logic.Vector, 5)
		var bv [5]bool
		for i := 0; i < 5; i++ {
			bv[i] = v&(1<<uint(i)) != 0
			bits[i] = logic.FromBool(bv[i])
		}
		out := e.Eval(bits)
		w22, w23 := ref(bv[0], bv[1], bv[2], bv[3], bv[4])
		if out[0] != logic.FromBool(w22) || out[1] != logic.FromBool(w23) {
			t.Fatalf("c17(%05b) = %v, want %v %v", v, out, w22, w23)
		}
	}
}

func TestAdderMatchesArithmetic(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, cin bool) bool {
		in := make(logic.Vector, 17)
		for i := 0; i < 8; i++ {
			in[i] = logic.FromBool(a&(1<<uint(i)) != 0)
			in[8+i] = logic.FromBool(b&(1<<uint(i)) != 0)
		}
		in[16] = logic.FromBool(cin)
		out := e.Eval(in)
		want := uint16(a) + uint16(b)
		if cin {
			want++
		}
		got := uint16(0)
		for i := 0; i < 9; i++ {
			if out[i] == logic.One {
				got |= 1 << uint(i)
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiplierMatchesArithmetic(t *testing.T) {
	n := circuits.ArrayMultiplier(4)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			in := make(logic.Vector, 8)
			for i := 0; i < 4; i++ {
				in[i] = logic.FromBool(a&(1<<uint(i)) != 0)
				in[4+i] = logic.FromBool(b&(1<<uint(i)) != 0)
			}
			out := e.Eval(in)
			got := 0
			for i := 0; i < 8; i++ {
				if out[i] == logic.One {
					got |= 1 << uint(i)
				}
			}
			if got != a*b {
				t.Fatalf("mul4(%d,%d) = %d, want %d", a, b, got, a*b)
			}
		}
	}
}

func TestParityTree(t *testing.T) {
	n := circuits.ParityTree(16)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(bits uint16) bool {
		in := make(logic.Vector, 16)
		ones := 0
		for i := 0; i < 16; i++ {
			if bits&(1<<uint(i)) != 0 {
				in[i] = logic.One
				ones++
			}
		}
		out := e.Eval(in)
		return out[0] == logic.FromBool(ones%2 == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecoderOneHot(t *testing.T) {
	n := circuits.Decoder(4)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		in := make(logic.Vector, 4)
		for i := 0; i < 4; i++ {
			in[i] = logic.FromBool(v&(1<<uint(i)) != 0)
		}
		out := e.Eval(in)
		for j := 0; j < 16; j++ {
			want := logic.FromBool(j == v)
			if out[j] != want {
				t.Fatalf("dec4(%d) output %d = %v, want %v", v, j, out[j], want)
			}
		}
	}
}

func TestALUOps(t *testing.T) {
	n := circuits.ALU(8)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(a, b uint8, s0, s1 bool) uint8 {
		in := make(logic.Vector, 18)
		for i := 0; i < 8; i++ {
			in[i] = logic.FromBool(a&(1<<uint(i)) != 0)
			in[8+i] = logic.FromBool(b&(1<<uint(i)) != 0)
		}
		in[16] = logic.FromBool(s0)
		in[17] = logic.FromBool(s1)
		out := e.Eval(in)
		var r uint8
		for i := 0; i < 8; i++ {
			if out[i] == logic.One {
				r |= 1 << uint(i)
			}
		}
		return r
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a, b := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		if got := eval(a, b, false, false); got != a&b {
			t.Fatalf("AND(%d,%d) = %d", a, b, got)
		}
		if got := eval(a, b, true, false); got != a|b {
			t.Fatalf("OR(%d,%d) = %d", a, b, got)
		}
		if got := eval(a, b, false, true); got != a^b {
			t.Fatalf("XOR(%d,%d) = %d", a, b, got)
		}
		if got := eval(a, b, true, true); got != a+b {
			t.Fatalf("ADD(%d,%d) = %d", a, b, got)
		}
	}
}

func TestCounterCountsAndHolds(t *testing.T) {
	n := circuits.Counter(4)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetState(logic.Zero)
	readState := func() int {
		v := 0
		for i, s := range e.State() {
			if s == logic.One {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	for cycle := 1; cycle <= 20; cycle++ {
		e.Step(logic.Vector{logic.One})
		if got, want := readState(), cycle%16; got != want {
			t.Fatalf("cycle %d: state = %d, want %d", cycle, got, want)
		}
	}
	// Disabled counter must hold its state.
	before := readState()
	e.Step(logic.Vector{logic.Zero})
	if readState() != before {
		t.Error("counter with en=0 must hold")
	}
}

func TestLFSRPeriod(t *testing.T) {
	// 4-bit LFSR with taps 4,3 has maximal period 15.
	n := circuits.LFSR(4, []int{4, 3})
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetState(logic.Zero)
	e.SetState(0, logic.One) // non-zero seed
	seen := map[string]int{}
	in := logic.Vector{logic.Zero}
	for cycle := 0; cycle < 20; cycle++ {
		key := e.State().String()
		if prev, ok := seen[key]; ok {
			if cycle-prev != 15 {
				t.Fatalf("period = %d, want 15", cycle-prev)
			}
			return
		}
		seen[key] = cycle
		e.Step(in)
	}
	t.Fatal("LFSR never repeated a state")
}

func TestS27SequentialBehaviourStable(t *testing.T) {
	n := circuits.S27()
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetState(logic.Zero)
	rng := rand.New(rand.NewSource(3))
	// Golden run twice with same stimuli must agree (determinism).
	stimuli := make([]logic.Vector, 50)
	for i := range stimuli {
		v := make(logic.Vector, 4)
		for j := range v {
			v[j] = logic.FromBool(rng.Intn(2) == 1)
		}
		stimuli[i] = v
	}
	run := func() []string {
		e2, _ := New(n)
		e2.ResetState(logic.Zero)
		var outs []string
		for _, s := range stimuli {
			outs = append(outs, e2.Step(s).String())
		}
		return outs
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic sequential sim at cycle %d", i)
		}
		if r1[i] != "0" && r1[i] != "1" {
			t.Fatalf("s27 output at cycle %d is %s, want binary", i, r1[i])
		}
	}
}

func TestUnknownPropagation(t *testing.T) {
	n := circuits.C17()
	e, _ := New(n)
	out := e.Eval(logic.Vector{logic.X, logic.X, logic.X, logic.X, logic.X})
	for _, v := range out {
		if v != logic.X {
			t.Errorf("all-X inputs must give X outputs, got %v", out)
		}
	}
	// A controlling value can still force an output despite X elsewhere:
	// G3=0 forces G10=1 and G11=1.
	out = e.Eval(logic.Vector{logic.X, logic.Zero, logic.Zero, logic.X, logic.One})
	// G11=1, G19=NAND(1,1)=0, G16=NAND(0,1)=1, G23=NAND(1,0)=1.
	if out[1] != logic.One {
		t.Errorf("constrained X evaluation: G23 = %v, want 1", out[1])
	}
}

// TestEvaluatorReadsZAsX pins the one way the Evaluator differs from a
// scalar value array: its values live in packed words, which have no Z
// plane, so a Z written to an input or a flip-flop reads back as X. A
// gate already reads a Z fanin as X, so every computed value equals the
// one an X write gives.
func TestEvaluatorReadsZAsX(t *testing.T) {
	n := circuits.S27()
	withZ, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	withX, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	in := make(logic.Vector, len(n.Inputs))
	in[0] = logic.Z
	withZ.SetState(0, logic.Z)
	withZ.Eval(in)
	in[0] = logic.X
	withX.SetState(0, logic.X)
	withX.Eval(in)
	if got := withZ.Value(n.Inputs[0]); got != logic.X {
		t.Errorf("input written Z reads back %v, want X", got)
	}
	if got := withZ.State()[0]; got != logic.X {
		t.Errorf("flip-flop written Z reads back %v, want X", got)
	}
	for id := 0; id < n.NumGates(); id++ {
		if withZ.Value(id) != withX.Value(id) {
			t.Errorf("gate %q: %v after a Z write, %v after an X write",
				n.Gate(id).Name, withZ.Value(id), withX.Value(id))
		}
	}
}

func TestPackedMatchesScalar(t *testing.T) {
	for _, build := range []func() *netlist.Netlist{
		circuits.C17,
		func() *netlist.Netlist { return circuits.RippleCarryAdder(4) },
		func() *netlist.Netlist { return circuits.ALU(4) },
		func() *netlist.Netlist {
			return circuits.RandomCombinational(circuits.RandomOptions{Inputs: 8, Gates: 120, Outputs: 6, Seed: 42})
		},
	} {
		n := build()
		e, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPacked(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		patterns := make([]logic.Vector, 64)
		for k := range patterns {
			v := make(logic.Vector, len(n.Inputs))
			for j := range v {
				v[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			patterns[k] = v
		}
		if err := p.LoadPatterns(patterns); err != nil {
			t.Fatal(err)
		}
		p.Run()
		for k := 0; k < 64; k++ {
			want := e.Eval(patterns[k])
			got := p.OutputVector(uint(k))
			if got.String() != want.String() {
				t.Fatalf("%s: slot %d packed %v != scalar %v", n.Name, k, got, want)
			}
		}
	}
}

func TestLoadPatternsLimit(t *testing.T) {
	p, _ := NewPacked(circuits.C17())
	if err := p.LoadPatterns(make([]logic.Vector, 65)); err == nil {
		t.Error("LoadPatterns must reject more than 64 patterns")
	}
}

// ragged returns count vectors of random length up to two past the
// input count, holding all four values and one out-of-range V.
func ragged(rng *rand.Rand, nInputs, count int) []logic.Vector {
	out := make([]logic.Vector, count)
	for k := range out {
		v := make(logic.Vector, rng.Intn(nInputs+3))
		for i := range v {
			v[i] = logic.V(rng.Intn(5))
		}
		out[k] = v
	}
	return out
}

// TestLoadPatternsMatchesWordSet pins the branch-free transpose to the
// per-slot Word.Set oracle, for the 64-slot and the wide loader: short,
// over-long and empty vectors, every value, partial blocks, and a reload
// over a machine still holding an earlier block.
func TestLoadPatternsMatchesWordSet(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	rng := rand.New(rand.NewSource(1))
	p, _ := NewPacked(n)
	pb, _ := NewPackedBlock(n)
	for _, count := range []int{0, 1, 37, 64, 65, 200, 256} {
		pats := ragged(rng, len(n.Inputs), count)
		if count <= 64 {
			_ = p.LoadPatterns(ragged(rng, len(n.Inputs), 64))
			if err := p.LoadPatterns(pats); err != nil {
				t.Fatal(err)
			}
		}
		_ = pb.LoadPatterns(ragged(rng, len(n.Inputs), 256))
		if err := pb.LoadPatterns(pats); err != nil {
			t.Fatal(err)
		}
		for i, id := range n.Inputs {
			var want logic.Block
			for k, pat := range pats {
				if i < len(pat) {
					want.Set(uint(k), pat[i])
				}
			}
			if count <= 64 && p.Word(id) != want[0] {
				t.Fatalf("%d patterns: input %d word %+v, want %+v", count, i, p.Word(id), want[0])
			}
			if pb.Block(id) != want {
				t.Fatalf("%d patterns: input %d block %+v, want %+v", count, i, pb.Block(id), want)
			}
		}
	}
}

func TestRunWithFaultOutputSite(t *testing.T) {
	n := circuits.C17()
	p, _ := NewPacked(n)
	g10, _ := n.Lookup("G10")
	// With G1=G3=1, good G10 = NAND(1,1) = 0. Force s-a-1.
	pat := logic.Vector{logic.One, logic.One, logic.One, logic.One, logic.One}
	if err := p.LoadPatterns([]logic.Vector{pat}); err != nil {
		t.Fatal(err)
	}
	p.RunWithFault(FaultSite{Gate: g10.ID, Pin: -1, SA: logic.One})
	if p.Word(g10.ID).Get(0) != logic.One {
		t.Error("fault site must carry the stuck value")
	}
	// Compare against good simulation: G22 must differ for this pattern.
	p2, _ := NewPacked(n)
	_ = p2.LoadPatterns([]logic.Vector{pat})
	p2.Run()
	g22, _ := n.Lookup("G22")
	if p.Word(g22.ID).Get(0) == p2.Word(g22.ID).Get(0) {
		t.Error("G10 s-a-1 must propagate to G22 under all-ones pattern")
	}
}

func TestRunWithFaultPinSiteIsLocal(t *testing.T) {
	// Build a circuit where one driver feeds two pins of the same cone:
	// y = AND(a, a). A pin fault on pin 0 must not affect pin 1.
	n := netlist.New("pinlocal")
	a, _ := n.AddInput("a")
	y, _ := n.AddGate("y", netlist.And, a, a)
	_ = n.MarkOutput(y)
	p, err := NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.LoadPatterns([]logic.Vector{{logic.One}})
	// Pin-0 stuck-at-0: faulty AND sees (0, 1) -> 0; an (incorrect)
	// net-level fault would also force pin 1 and give the same result,
	// so check s-a-1 with a=0: faulty AND sees (1, 0) -> 0, while a
	// net fault would give (1,1) -> 1.
	_ = p.LoadPatterns([]logic.Vector{{logic.Zero}})
	p.RunWithFault(FaultSite{Gate: y, Pin: 0, SA: logic.One})
	if got := p.Word(y).Get(0); got != logic.Zero {
		t.Errorf("pin fault leaked to sibling pin: y = %v, want 0", got)
	}
}

func TestStepLatchesSimultaneously(t *testing.T) {
	// Two-stage shift: q1 <- in, q2 <- q1. Simultaneous update means after
	// one step with in=1 starting from 00, state is (1, 0) not (1, 1).
	n := netlist.New("shift2")
	in, _ := n.AddInput("in")
	q1, _ := n.AddGate("q1", netlist.DFF, in)
	q2, _ := n.AddGate("q2", netlist.DFF, q1)
	_ = n.MarkOutput(q2)
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetState(logic.Zero)
	e.Step(logic.Vector{logic.One})
	st := e.State()
	if st[0] != logic.One || st[1] != logic.Zero {
		t.Errorf("state after one shift = %v, want 10", st)
	}
}

func TestRunConeEvalMatchesFullPass(t *testing.T) {
	// The cone-restricted incremental pass over an aligned machine must
	// produce bit-identical words for every cone gate (and, by
	// construction, leave out-of-cone outputs equal to the good machine)
	// for every stuck-at site — output and pin, s-a-0 and s-a-1 — on
	// reconvergent circuits.
	for _, build := range []func() *netlist.Netlist{
		circuits.C17,
		func() *netlist.Netlist { return circuits.ArrayMultiplier(4) },
		func() *netlist.Netlist {
			return circuits.RandomCombinational(circuits.RandomOptions{Inputs: 8, Gates: 120, Outputs: 6, Seed: 42})
		},
	} {
		n := build()
		good, err := NewPacked(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		patterns := make([]logic.Vector, 64)
		for k := range patterns {
			v := make(logic.Vector, len(n.Inputs))
			for j := range v {
				v[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			patterns[k] = v
		}
		if err := good.LoadPatterns(patterns); err != nil {
			t.Fatal(err)
		}
		good.Run()
		full, _ := NewPacked(n)
		cone, _ := NewPacked(n)
		for _, g := range n.Gates {
			sites := []FaultSite{{Gate: g.ID, Pin: -1}}
			for pin := range g.Fanin {
				sites = append(sites, FaultSite{Gate: g.ID, Pin: pin})
			}
			for _, site := range sites {
				for _, sa := range []logic.V{logic.Zero, logic.One} {
					site.SA = sa
					if err := full.LoadPatterns(patterns); err != nil {
						t.Fatal(err)
					}
					full.RunWithFault(site)
					fc, err := n.FanoutConeOrdered(site.Gate)
					if err != nil {
						t.Fatal(err)
					}
					cone.AlignTo(good)
					cone.c.runConeEval(cone.words, cone.scratch, fc, site)
					for _, id := range fc.Order {
						if cone.Word(id) != full.Word(id) {
							t.Fatalf("%s: site %+v: cone gate %q word %v != full %v",
								n.Name, site, n.Gate(id).Name, cone.Word(id), full.Word(id))
						}
					}
					// Outputs outside the cone must be untouched by the fault.
					for oi, oid := range n.Outputs {
						inCone := false
						for _, ci := range fc.Outputs {
							if ci == oi {
								inCone = true
							}
						}
						if !inCone && logic.DiffW(full.Word(oid), good.Word(oid)) != 0 {
							t.Fatalf("%s: site %+v flipped out-of-cone output %q",
								n.Name, site, n.Gate(oid).Name)
						}
					}
				}
			}
		}
	}
}

func TestConePassRejectsForeignCone(t *testing.T) {
	// A cone pass faults the root of the cone grown from the fault's
	// gate. A fault passed with another gate's cone — here G22, which
	// lies inside G10's cone — is a caller bug and must panic on both
	// widths instead of being evaluated.
	n := circuits.C17()
	g10, _ := n.Lookup("G10")
	g22, _ := n.Lookup("G22")
	cone, err := n.FanoutConeOrdered(g10.ID)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	bad := good.Compiled().NewPacked()
	goodB := good.Compiled().NewPackedBlock()
	badB := good.Compiled().NewPackedBlock()
	site := FaultSite{Gate: g22.ID, Pin: -1, SA: logic.One}
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"Packed", func() { bad.RunConeWithAlarms(good, cone, site, 0) }},
		{"PackedBlock", func() { badB.RunConeWithAlarms(goodB, cone, site, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.RunConeWithAlarms evaluated a fault at G22 over G10's cone", pass.name)
				}
			}()
			pass.run()
		}()
	}
}
