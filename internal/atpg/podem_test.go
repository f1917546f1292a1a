package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// seedPODEMDigest pins every PODEM search result — outcome, vector and
// backtrack count for every collapsed stuck-at of every scan-viewed
// registry circuit, at the default and at a tight backtrack limit, plus
// a functional-view classification of mul8 — to the values of the
// full-pass implication engine. Any change to the search or to the
// implied values it reads changes it.
const seedPODEMDigest = "3a8d785b46bf1271c9f233b88da7c099d3e8fc31dd896f944d248c671d2d7709"

// digestSearches hashes Generate's outcome, vector and backtrack count
// for every fault into h.
func digestSearches(t *testing.T, h hash.Hash, name string, n *netlist.Netlist, faults fault.List, opt Options) {
	t.Helper()
	eng, err := NewEngine(n, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(h, "circuit %s limit %d\n", name, opt.BacktrackLimit)
	for i, f := range faults {
		vec, out := eng.Generate(f)
		fmt.Fprintf(h, "%d %v %v %d\n", i, out, vec, eng.Backtracks())
	}
}

// TestPODEMMatchesSeedDigest pins Engine.Generate and ClassifyFaults
// byte for byte across the registry. The tight limit drives the
// AbortedLimit paths. The mul8 view drops the two lowest product bits
// from the outputs, the way fusa.CrossCheck keeps only functional
// outputs, so it adds untestability proofs on a deep circuit. The view
// is classified serially and with budgets of 1 and 3 spare slots, each
// on a view of its own so that every budget searches, and every budget
// must hash the same line.
func TestPODEMMatchesSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		n := combRegistry(t, name)
		faults := fault.Collapse(n, fault.AllStuckAt(n))
		digestSearches(t, h, name, n, faults, Options{})
		digestSearches(t, h, name, n, faults, Options{BacktrackLimit: 50})
	}
	mul8 := circuits.ArrayMultiplier(8)
	var line string
	for _, spare := range []int{0, 1, 3} {
		view := mul8.Clone()
		view.Outputs = append([]int(nil), mul8.Outputs[2:]...)
		cls, err := ClassifyFaults(view, fault.Collapse(mul8, fault.AllStuckAt(mul8)), Options{Spare: NewSlots(spare)})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("classify %v %d %d\n", cls.Outcomes, cls.Calls, cls.Backtracks)
		if line == "" {
			line = got
		} else if got != line {
			t.Errorf("classification with %d spare slots differs from the serial one", spare)
		}
	}
	fmt.Fprint(h, line)
	if got := hex.EncodeToString(h.Sum(nil)); got != seedPODEMDigest {
		t.Errorf("PODEM digest = %s, want %s", got, seedPODEMDigest)
	}
}

// seedImplyDigest pins the implication work of every PODEM search:
// outcome, backtracks and implication gate evals of a fresh Generate
// for every stuck-at of every scan-viewed registry circuit, on the
// collapsed and the uncollapsed list, at the default and at a tight
// backtrack limit. The event queue's order may change; which gates it
// evaluates, and how often, may not.
const seedImplyDigest = "a25fc972208131eda2cc32bb9afd1ea811a5fd7922909ebfec4dce6b950107fb"

// TestImplyGateEvalsMatchSeedDigest pins ImplyGateEvals, which
// TestPODEMMatchesSeedDigest does not cover, search by search.
func TestImplyGateEvalsMatchSeedDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range circuits.Names() {
		n := combRegistry(t, name)
		all := fault.AllStuckAt(n)
		for _, faults := range []fault.List{fault.Collapse(n, all), all} {
			for _, limit := range []int{0, 50} {
				eng, err := NewEngine(n, Options{BacktrackLimit: limit})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fmt.Fprintf(h, "circuit %s faults %d limit %d\n", name, len(faults), limit)
				for i, f := range faults {
					_, out := eng.Generate(f)
					fmt.Fprintf(h, "%d %v %d %d\n", i, out, eng.Backtracks(), eng.ImplyGateEvals())
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedImplyDigest {
		t.Errorf("implication digest = %s, want %s", got, seedImplyDigest)
	}
}

// impliedFaults samples stuck-at faults for the implication oracle: a
// seeded draw from the uncollapsed list plus an output fault on a
// primary input and a pin fault, which the draw may miss.
func impliedFaults(n *netlist.Netlist, rng *rand.Rand) fault.List {
	all := fault.AllStuckAt(n)
	list := fault.List{{Kind: fault.StuckAt, Gate: n.Inputs[0], Pin: -1, Value: logic.One}}
	for _, f := range all {
		if f.Pin >= 0 {
			list = append(list, f)
			break
		}
	}
	for i := 0; i < 10; i++ {
		list = append(list, all[rng.Intn(len(all))])
	}
	return list
}

// TestIncrementalImplyMatchesFullPass keeps two full word passes as the
// oracle of event-driven implication, Packed.Run for the good machine
// and Packed.RunWithFault for the faulty one: on every registry circuit,
// after every imply of a seeded sequence of input assignments, flips and
// clears (one to three per step, as a backtrack pops several), the
// engine's good slot 0 and faulty slot 1 must equal them on every gate,
// and every other slot must equal slot 0. The first imply of a target
// starts from the all-X machine and may evaluate no gate outside the
// target's cone.
func TestIncrementalImplyMatchesFullPass(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combRegistry(t, name)
		eng, err := NewEngine(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n.NumGates())))
		good, faulty := c.NewPacked(), c.NewPacked()
		for _, f := range impliedFaults(n, rng) {
			cone, err := n.FanoutConeOrdered(f.Gate)
			if err != nil {
				t.Fatal(err)
			}
			eng.retarget(f)
			for step := 0; step < 30; step++ {
				for w := 0; step > 0 && w < 1+rng.Intn(3); w++ {
					pi := rng.Intn(len(n.Inputs))
					switch cur := eng.piVal[pi]; {
					case !cur.Known():
						eng.setPI(pi, logic.FromBool(rng.Intn(2) == 1))
					case rng.Intn(2) == 0:
						eng.setPI(pi, logic.Not(cur))
					default:
						eng.setPI(pi, logic.X)
					}
				}
				evals := eng.evals
				eng.imply()
				if evals = eng.evals - evals; step == 0 && evals > cone.Evals {
					t.Fatalf("%s: %s: first imply evaluated %d gates, more than the cone's %d",
						name, f.Describe(n), evals, cone.Evals)
				}
				for i, id := range n.Inputs {
					good.SetWord(int32(id), logic.WordAll(eng.piVal[i]))
					faulty.SetWord(int32(id), logic.WordAll(eng.piVal[i]))
				}
				good.Run()
				faulty.RunWithFault(sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value})
				for id := 0; id < n.NumGates(); id++ {
					w := eng.m.Word(id)
					if w.Get(0) != good.Word(id).Get(0) || w.Get(faultySlot) != faulty.Word(id).Get(0) {
						t.Fatalf("%s: %s step %d gate %q: incremental values differ from the full pass",
							name, f.Describe(n), step, n.Gate(id).Name)
					}
					if w.Set(faultySlot, w.Get(0)) != logic.WordAll(w.Get(0)) {
						t.Fatalf("%s: %s step %d gate %q: a good slot differs from slot 0",
							name, f.Describe(n), step, n.Gate(id).Name)
					}
				}
			}
		}
	}
}

// TestGenerateWarmAllocations pins the zero-alloc search: once an engine
// is warm, Generate allocates only the vector it returns on a testable
// fault, and nothing on an untestable or aborted one.
func TestGenerateWarmAllocations(t *testing.T) {
	taut := netlist.New("taut") // y = OR(a, NOT(a)): y s-a-1 is redundant
	a, _ := taut.AddInput("a")
	na, _ := taut.AddGate("na", netlist.Not, a)
	y, _ := taut.AddGate("y", netlist.Or, a, na)
	_ = taut.MarkOutput(y)
	seen := map[Outcome]bool{}
	for _, n := range []*netlist.Netlist{combRegistry(t, "mul4"), taut} {
		eng, err := NewEngine(n, Options{BacktrackLimit: 50})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fault.Collapse(n, fault.AllStuckAt(n)) {
			_, out := eng.Generate(f)
			seen[out] = true
			want := 0.0
			if out == TestFound {
				want = 1
			}
			if allocs := testing.AllocsPerRun(3, func() { eng.Generate(f) }); allocs != want {
				t.Errorf("%s %s (%v): warm Generate allocated %.0f times, want %.0f",
					n.Name, f.Describe(n), out, allocs, want)
			}
		}
	}
	for _, out := range []Outcome{TestFound, ProvenUntestable, AbortedLimit} {
		if !seen[out] {
			t.Errorf("no %v fault exercised", out)
		}
	}
}

// refScanFrontier is the cone scan that scanFrontier's walk replaced,
// kept as its oracle: in the cone's (level, id) order, every gate other
// than an input that is undetermined in at least one machine and has a
// fanin carrying a D, and the root of an activated pin fault while it
// is undetermined.
func refScanFrontier(e *Engine) []int32 {
	var fr []int32
	pinGate := int32(-1)
	if site := e.good(int(e.siteNet)); e.target.Pin >= 0 && site.Known() && site != e.target.Value {
		pinGate = int32(e.target.Gate)
	}
	for _, gid := range e.cone.Order {
		id := int32(gid)
		if e.piOf[id] >= 0 || e.known(gid) {
			continue
		}
		if id == pinGate {
			fr = append(fr, id)
			continue
		}
		for _, fi := range e.c.Fanin(gid) {
			if e.carriesD(int(fi)) {
				fr = append(fr, id)
				break
			}
		}
	}
	return fr
}

// generateChecked is Generate's loop with one check added: at every
// activated, undetected state, the frontier that state walked must
// equal refScanFrontier's as a set. It returns the outcome and the
// number of states checked.
func generateChecked(t *testing.T, e *Engine, f fault.Fault) (Outcome, int) {
	t.Helper()
	e.backtracks, e.evals = 0, 0
	e.retarget(f)
	checks := 0
	for {
		e.imply()
		st := e.state()
		if site := e.good(int(e.siteNet)); st != stateDetected && site.Known() && site != f.Value {
			checks++
			got, want := slices.Clone(e.frontier), refScanFrontier(e)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s: walked frontier %v, cone scan %v",
					e.n.Name, f.Describe(e.n), got, want)
			}
		}
		switch st {
		case stateDetected:
			return TestFound, checks
		case stateConflict:
			if ok, why := e.backtrack(); !ok {
				return why, checks
			}
			continue
		}
		objGate, objVal, ok := e.objective()
		if !ok {
			if okBT, why := e.backtrack(); !okBT {
				return why, checks
			}
			continue
		}
		pi, v := e.backtrace(objGate, objVal)
		if e.piVal[pi].Known() {
			if okBT, why := e.backtrack(); !okBT {
				return why, checks
			}
			continue
		}
		e.setPI(pi, v)
		e.stack = append(e.stack, frame{pi: int32(pi), val: v})
	}
}

// TestFrontierWalkMatchesConeScan drives Generate's loop step by step
// over the uncollapsed stuck-at list of every scan-viewed registry
// circuit, so every pin fault is searched, and compares the D-frontier
// walk with the cone scan it replaced at every activated, undetected
// state. Each stepped search must end with Generate's own outcome and
// backtrack count.
func TestFrontierWalkMatchesConeScan(t *testing.T) {
	checks := 0
	for _, name := range circuits.Names() {
		n := combRegistry(t, name)
		eng, err := NewEngine(n, Options{BacktrackLimit: 200})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range fault.AllStuckAt(n) {
			out, k := generateChecked(t, eng, f)
			bt := eng.Backtracks()
			checks += k
			if _, want := eng.Generate(f); out != want || bt != eng.Backtracks() {
				t.Fatalf("%s: %s: stepped search %v after %d backtracks, Generate %v after %d",
					name, f.Describe(n), out, bt, want, eng.Backtracks())
			}
		}
	}
	if checks == 0 {
		t.Fatal("no activated state was checked")
	}
	t.Logf("%d activated states checked", checks)
}
