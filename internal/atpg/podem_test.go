package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
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

// TestIncrementalImplyMatchesFullPass keeps RunDualWithFault as the
// oracle of event-driven implication: on every registry circuit, after
// every imply of a seeded sequence of input assignments, flips and
// clears (one to three per step, as a backtrack pops several), the
// engine's good and faulty values must equal a fresh full pass.
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
		gv := make([]logic.V, n.NumGates())
		fv := make([]logic.V, n.NumGates())
		scratch := c.NewValueScratch()
		for _, f := range impliedFaults(n, rng) {
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
				eng.imply()
				for i, id := range n.Inputs {
					gv[id], fv[id] = eng.piVal[i], eng.piVal[i]
				}
				c.RunDualWithFault(gv, fv, scratch, sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value})
				if !reflect.DeepEqual(gv, eng.gv) || !reflect.DeepEqual(fv, eng.fv) {
					t.Fatalf("%s: %s step %d: incremental values differ from the full pass", name, f.Describe(n), step)
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
