package sim

import (
	"math/rand"
	"slices"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// randXVector draws a vector over {0, 1, X}: X-laden stimuli exercise
// the unknown-propagation corners of every engine, where hand-rolled
// switch copies historically drifted.
func randXVector(rng *rand.Rand, n int) logic.Vector {
	vec := make(logic.Vector, n)
	for i := range vec {
		switch rng.Intn(4) {
		case 0:
			vec[i] = logic.X
		case 1:
			vec[i] = logic.Zero
		default:
			vec[i] = logic.One
		}
	}
	return vec
}

// loadBlock loads an X-laden pattern block plus random DFF state into
// the packed machine, so sequential registry circuits are exercised
// directly at the sim level (their combinational part is what a pass
// evaluates; DFF slots are held state).
func loadBlock(t *testing.T, p *Packed, patterns []logic.Vector, states []logic.Vector) {
	t.Helper()
	if err := p.LoadPatterns(patterns); err != nil {
		t.Fatal(err)
	}
	for di := range p.N.DFFs {
		var w logic.Word
		for k, st := range states {
			w = w.Set(uint(k), st[di])
		}
		p.SetStateWord(di, w)
	}
}

// TestCompiledMatchesInterpretedOnRegistry is the registry-wide
// differential test of the compiled machine against the interpreted
// oracles: for every circuit, over random X-laden pattern blocks, the
// compiled full pass must equal the interpreted full pass word-for-word
// on every gate, and the Evaluator must agree with the interpreted
// scalar pass and with the packed pass on every pattern slot. Every
// gate's Rank must be its schedule position (-1 for an input or DFF),
// and its ReaderRanks the sorted ranks of its Fanout.
func TestCompiledMatchesInterpretedOnRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range circuits.Names() {
		n := circuits.Registry[name]()
		patterns := make([]logic.Vector, 48)
		states := make([]logic.Vector, len(patterns))
		for k := range patterns {
			patterns[k] = randXVector(rng, len(n.Inputs))
			states[k] = randXVector(rng, len(n.DFFs))
		}

		compiled, err := NewPacked(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		interp, err := NewPacked(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loadBlock(t, compiled, patterns, states)
		loadBlock(t, interp, patterns, states)
		compiled.Run()
		interp.runInterpreted()
		for id := 0; id < n.NumGates(); id++ {
			if compiled.Word(id) != interp.Word(id) {
				t.Fatalf("%s: gate %q: compiled word %+v != interpreted %+v",
					name, n.Gate(id).Name, compiled.Word(id), interp.Word(id))
			}
		}
		// The single-gate step recomputes every scheduled gate's word.
		for _, id := range compiled.c.Schedule() {
			if got := compiled.EvalGate(id); got != compiled.Word(int(id)) {
				t.Fatalf("%s: gate %q: EvalGate %+v != full pass %+v",
					name, n.Gate(int(id)).Name, got, compiled.Word(int(id)))
			}
		}

		rank := make([]int32, n.NumGates())
		for id := range rank {
			rank[id] = -1
		}
		for r, id := range compiled.c.Schedule() {
			rank[id] = int32(r)
		}
		for id := range rank {
			g := n.Gate(id)
			held := g.Type == netlist.Input || g.Type == netlist.DFF
			if held != (rank[id] < 0) || compiled.c.Rank(id) != rank[id] {
				t.Fatalf("%s: gate %q (%v): Rank %d, schedule position %d",
					name, g.Name, g.Type, compiled.c.Rank(id), rank[id])
			}
			var want []int32
			for _, fo := range compiled.c.Fanout(id) {
				want = append(want, rank[fo])
			}
			slices.Sort(want)
			if got := compiled.c.ReaderRanks(id); !slices.Equal(got, want) {
				t.Fatalf("%s: gate %q: ReaderRanks %v, want the sorted ranks of its readers %v",
					name, g.Name, got, want)
			}
		}

		// Evaluator vs packed slots, plus the interpreted scalar oracle.
		ev, err := New(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle := make([]logic.V, n.NumGates())
		for k := range patterns {
			ev.SetInputs(patterns[k])
			for i, id := range n.Inputs {
				oracle[id] = patterns[k][i]
			}
			for di, id := range n.DFFs {
				ev.SetState(di, states[k][di])
				oracle[id] = states[k][di]
			}
			ev.Run()
			runInterpretedV(compiled.c, oracle)
			for id := 0; id < n.NumGates(); id++ {
				if ev.Value(id) != oracle[id] {
					t.Fatalf("%s: pattern %d gate %q: Evaluator %v != interpreted %v",
						name, k, n.Gate(id).Name, ev.Value(id), oracle[id])
				}
				if got := compiled.Word(id).Get(uint(k)); got != ev.Value(id) {
					t.Fatalf("%s: pattern %d gate %q: packed slot %v != Evaluator %v",
						name, k, n.Gate(id).Name, got, ev.Value(id))
				}
			}
		}
	}
}

// TestCompiledFaultPassesMatchInterpretedOnRegistry pins the compiled
// faulty passes — full RunWithFault, the cone evaluation loop, and the
// aligned fused cone pass — to the interpreted oracles over sampled
// stuck-at sites of every registry circuit.
func TestCompiledFaultPassesMatchInterpretedOnRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, name := range circuits.Names() {
		n := circuits.Registry[name]()
		patterns := make([]logic.Vector, 32)
		states := make([]logic.Vector, len(patterns))
		for k := range patterns {
			patterns[k] = randXVector(rng, len(n.Inputs))
			states[k] = randXVector(rng, len(n.DFFs))
		}
		good, err := NewPacked(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loadBlock(t, good, patterns, states)
		good.Run()

		faults := fault.AllStuckAt(n)
		step := len(faults)/40 + 1
		for fi := 0; fi < len(faults); fi += step {
			f := faults[fi]
			site := FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}

			badC, _ := NewPacked(n)
			badI, _ := NewPacked(n)
			loadBlock(t, badC, patterns, states)
			loadBlock(t, badI, patterns, states)
			badC.RunWithFault(site)
			badI.runWithFaultInterpreted(site, ^uint64(0))
			for id := 0; id < n.NumGates(); id++ {
				if badC.Word(id) != badI.Word(id) {
					t.Fatalf("%s: fault %d gate %q: RunWithFault compiled %+v != interpreted %+v",
						name, fi, n.Gate(id).Name, badC.Word(id), badI.Word(id))
				}
			}
			// The faulted-site step over the good machine yields the
			// site's faulty word: the site's fanins are never faulty. A
			// DFF's D-pin fault acts only at latch time, so it has none.
			if f.Pin < 0 || n.Gate(f.Gate).Type != netlist.DFF {
				if got := good.EvalGateFaulted(site); got != badC.Word(f.Gate) {
					t.Fatalf("%s: fault %d: EvalGateFaulted %+v != RunWithFault %+v",
						name, fi, got, badC.Word(f.Gate))
				}
			}

			cone, err := n.FanoutConeOrdered(f.Gate)
			if err != nil {
				t.Fatalf("%s: cone of %d: %v", name, f.Gate, err)
			}
			coneC, _ := NewPacked(n)
			coneI, _ := NewPacked(n)
			coneC.AlignTo(good)
			coneC.c.runConeEval(coneC.words, coneC.scratch, cone, site)
			evI := coneI.runConeWithFaultInterpreted(good, cone, site, ^uint64(0))
			if cone.Evals != evI {
				t.Fatalf("%s: fault %d: cone eval count %d != interpreted %d", name, fi, cone.Evals, evI)
			}
			for _, id := range cone.Order {
				if coneC.Word(id) != coneI.Word(id) {
					t.Fatalf("%s: fault %d cone gate %q: compiled %+v != interpreted %+v",
						name, fi, n.Gate(id).Name, coneC.Word(id), coneI.Word(id))
				}
			}

			// Aligned fused pass: diff mask consistent with the oracle's
			// cone outputs, and the invariant restored.
			aligned, _ := NewPacked(n)
			aligned.AlignTo(good)
			diff := aligned.RunConeWithAlarms(good, cone, site, 0)
			var want uint64
			for _, oi := range cone.Outputs {
				oid := n.Outputs[oi]
				want |= logic.DiffW(good.Word(oid), coneI.Word(oid))
			}
			if diff != want {
				t.Fatalf("%s: fault %d: aligned diff %#x != oracle %#x", name, fi, diff, want)
			}
			for id := 0; id < n.NumGates(); id++ {
				if aligned.Word(id) != good.Word(id) {
					t.Fatalf("%s: fault %d gate %q: alignment invariant broken after RunConeWithAlarms",
						name, fi, n.Gate(id).Name)
				}
			}
		}
	}
}

// TestRunConeAlignedMaskMatchesInterpretedOnRegistry pins the contract
// of the wide cone pass's slot mask: for every stuck-at of every
// registry circuit as built (sequential ones too, with random DFF state,
// so DFF output and D-pin faults sit at the cone root), a random partial
// mask per fault must yield, word for word, the output diff the
// interpreted cone oracle gives with that word's mask, and the pass
// must report the cone's evaluation count.
func TestRunConeAlignedMaskMatchesInterpretedOnRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, name := range circuits.Names() {
		n := circuits.Registry[name]()
		goodB, err := NewPackedBlock(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := goodB.Compiled()
		var goodWs [logic.BlockWords]*Packed
		for w := range goodWs {
			patterns := make([]logic.Vector, 64)
			states := make([]logic.Vector, len(patterns))
			for k := range patterns {
				patterns[k] = randXVector(rng, len(n.Inputs))
				states[k] = randXVector(rng, len(n.DFFs))
			}
			goodWs[w] = c.NewPacked()
			loadBlock(t, goodWs[w], patterns, states)
			for _, ids := range [][]int32{c.inputs, c.dffs} {
				for _, id := range ids {
					goodB.blocks[id][w] = goodWs[w].words[id]
				}
			}
			goodWs[w].Run()
		}
		goodB.Run()
		badB := c.NewPackedBlock()
		badB.AlignTo(goodB)
		oracle := c.NewPacked()
		for fi, f := range fault.AllStuckAt(n) {
			cone, err := n.FanoutConeOrdered(f.Gate)
			if err != nil {
				t.Fatalf("%s: cone of %d: %v", name, f.Gate, err)
			}
			site := FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}
			var mask logic.BlockMask
			for w := range mask {
				mask[w] = rng.Uint64()
			}
			diff, evals := badB.RunConeAligned(goodB, cone, site, &mask)
			if evals != cone.Evals {
				t.Fatalf("%s: fault %d: wide cone pass counted %d evals, cone has %d", name, fi, evals, cone.Evals)
			}
			for w, good := range goodWs {
				oracle.AlignTo(good)
				oracle.runConeWithFaultInterpreted(good, cone, site, mask[w])
				var want uint64
				for _, oi := range cone.Outputs {
					oid := n.Outputs[oi]
					want |= logic.DiffW(good.Word(oid), oracle.Word(oid))
				}
				if diff[w] != want {
					t.Fatalf("%s: fault %d word %d (mask %#x): wide diff %#x != interpreted %#x",
						name, fi, w, mask[w], diff[w], want)
				}
			}
		}
	}
}

// TestKernelVariantsAgree pins the compiled word kernel, indexed and
// over gathered values with and without a pin override, to the shared
// generic interpreter (through evalGateW / evalGateWPin) on every gate
// type and arity, over random X-laden words.
func TestKernelVariantsAgree(t *testing.T) {
	n := netlist.New("kernel")
	var ins []int
	for i := 0; i < 4; i++ {
		id, err := n.AddInput(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, id)
	}
	type gateSpec struct {
		t      netlist.GateType
		nfanin int
	}
	specs := []gateSpec{
		{netlist.Buf, 1}, {netlist.Not, 1}, {netlist.Mux, 3},
		{netlist.And, 2}, {netlist.Nand, 2}, {netlist.Or, 2},
		{netlist.Nor, 2}, {netlist.Xor, 2}, {netlist.Xnor, 2},
		{netlist.And, 4}, {netlist.Nand, 3}, {netlist.Or, 4},
		{netlist.Nor, 3}, {netlist.Xor, 4}, {netlist.Xnor, 3},
	}
	var gates []int
	for i, s := range specs {
		id, err := n.AddGate(string(rune('g'+0))+string(rune('0'+i/10))+string(rune('0'+i%10)), s.t, ins[:s.nfanin]...)
		if err != nil {
			t.Fatal(err)
		}
		gates = append(gates, id)
	}
	if err := n.MarkOutput(gates[0]); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randWord := func() logic.Word {
		var w logic.Word
		for k := uint(0); k < 64; k++ {
			w = w.Set(k, logic.V(rng.Intn(3)))
		}
		return w
	}
	words := make([]logic.Word, n.NumGates())
	scratchW := c.newScratch()
	for round := 0; round < 200; round++ {
		for _, id := range ins {
			words[id] = randWord()
		}
		for gi, id := range gates {
			g := n.Gate(id)
			getW := func(i int) logic.Word { return words[i] }
			if got, want := evalOpW(c.code[id], c.fanin[c.faninOff[id]:c.faninOff[id+1]], words), evalGateW(g, getW); got != want {
				t.Fatalf("spec %d: compiled word %+v != generic %+v", gi, got, want)
			}
			gatheredW := scratchW[:len(g.Fanin)]
			for i, fi := range g.Fanin {
				gatheredW[i] = words[fi]
			}
			if got, want := c.evalOpVals(c.code[id], gatheredW), evalGateW(g, getW); got != want {
				t.Fatalf("spec %d: compiled gathered word %+v != generic %+v", gi, got, want)
			}
			// Pin-override variant.
			pin := rng.Intn(len(g.Fanin))
			pv := randWord()
			gatheredW[pin] = pv
			if got, want := c.evalOpVals(c.code[id], gatheredW), evalGateWPin(g, getW, pin, pv); got != want {
				t.Fatalf("spec %d pin %d: compiled word pin %+v != generic %+v", gi, pin, got, want)
			}
		}
	}
}

// TestCompileCacheInvalidation checks the artifact-cache contract:
// repeated Compile calls share one machine, and any structural mutation
// (AddGate, AddInput, MarkOutput) drops the stale artifact so the next
// Compile sees the new structure.
func TestCompileCacheInvalidation(t *testing.T) {
	n := netlist.New("inv")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	g1, err := n.AddGate("g1", netlist.And, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput(g1); err != nil {
		t.Fatal(err)
	}
	c1, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("Compile not memoised: %p != %p", c1, c2)
	}

	g2, err := n.AddGate("g2", netlist.Xor, a, g1)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("AddGate did not invalidate the compiled artifact")
	}
	if c3.NumGates() != n.NumGates() || c3.ScheduleLen() != 2 {
		t.Fatalf("stale compile after AddGate: gates %d schedule %d", c3.NumGates(), c3.ScheduleLen())
	}

	if err := n.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	c4, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c3 {
		t.Fatal("MarkOutput did not invalidate the compiled artifact")
	}

	if _, err := n.AddInput("c"); err != nil {
		t.Fatal(err)
	}
	c5, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if c5 == c4 {
		t.Fatal("AddInput did not invalidate the compiled artifact")
	}

	// The fresh machine must evaluate the mutated circuit correctly.
	p, err := NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadPatterns([]logic.Vector{{logic.One, logic.One}}); err != nil {
		t.Fatal(err)
	}
	p.Run()
	if got := p.Word(g2).Get(0); got != logic.Zero { // 1 XOR (1 AND 1) = 0
		t.Fatalf("recompiled machine wrong: g2 = %v, want 0", got)
	}
}
