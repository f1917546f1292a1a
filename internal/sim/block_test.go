package sim_test

import (
	"testing"

	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// The wide-block kernels are pinned word-for-word to the 64-bit path:
// one PackedBlock.Run over 256 patterns must hold, per gate, exactly the
// four words four Packed passes over the four 64-pattern sub-blocks hold —
// including X-laden patterns and partial (<256) blocks, whose unused
// slots are X on both sides. The tests live in an external package so
// they can scan-convert sequential registry circuits via atpg.ScanView.

// combView returns the circuit, scan-converted if sequential.
func combView(t testing.TB, name string) *netlist.Netlist {
	t.Helper()
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

// blockPatterns builds count deterministic patterns with X values
// sprinkled in (every 7th value of every 3rd pattern), exercising the
// unknown-propagation planes of the wide ops.
func blockPatterns(n *netlist.Netlist, count int, seed int64) []logic.Vector {
	pats := faultsim.RandomPatterns(n, count, seed)
	for k, p := range pats {
		if k%3 != 0 {
			continue
		}
		for i := range p {
			if (i+k)%7 == 0 {
				p[i] = logic.X
			}
		}
	}
	return pats
}

// wordOracle runs the four 64-pattern sub-blocks of pats through the
// 64-bit compiled path and returns, per gate, the four words — the
// word-for-word oracle for one wide pass.
func wordOracle(t *testing.T, n *netlist.Netlist, pats []logic.Vector) [][logic.BlockWords]logic.Word {
	t.Helper()
	p, err := sim.NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][logic.BlockWords]logic.Word, n.NumGates())
	for w := 0; w < logic.BlockWords; w++ {
		lo := w * 64
		if lo > len(pats) {
			lo = len(pats)
		}
		hi := lo + 64
		if hi > len(pats) {
			hi = len(pats)
		}
		if err := p.LoadPatterns(pats[lo:hi]); err != nil {
			t.Fatal(err)
		}
		p.Run()
		for id := 0; id < n.NumGates(); id++ {
			out[id][w] = p.Word(id)
		}
	}
	return out
}

func TestRunBlockMatchesWordOracleOnRegistry(t *testing.T) {
	// 256 = full block; 100 and 37 = partial blocks whose tail words see
	// all-X loads on both paths.
	for _, count := range []int{256, 100, 37} {
		for _, name := range circuits.Names() {
			n := combView(t, name)
			pats := blockPatterns(n, count, int64(count)*31)
			oracle := wordOracle(t, n, pats)
			pb, err := sim.NewPackedBlock(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := pb.LoadPatterns(pats); err != nil {
				t.Fatal(err)
			}
			pb.Run()
			for id := 0; id < n.NumGates(); id++ {
				b := pb.Block(id)
				for w := 0; w < logic.BlockWords; w++ {
					if b[w] != oracle[id][w] {
						t.Fatalf("%s (%d patterns): gate %q word %d: block %+v != word oracle %+v",
							name, count, n.Gate(id).Name, w, b[w], oracle[id][w])
					}
				}
			}
		}
	}
}

// TestRunConeAlignedBlockMatchesWordOracle pins the wide cone pass to
// four 64-bit cone passes: per fault site, with no alarm output and with
// the last output read as an alarm, the wide diff mask's words must
// equal the four word diffs.
func TestRunConeAlignedBlockMatchesWordOracle(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combView(t, name)
		faults := fault.AllStuckAt(n)
		pats := blockPatterns(n, 256, 99)

		goodB, err := sim.NewPackedBlock(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := goodB.LoadPatterns(pats); err != nil {
			t.Fatal(err)
		}
		goodB.Run()
		badB := goodB.Compiled().NewPackedBlock()
		badB.AlignTo(goodB)

		// One (good, aligned bad) word-machine pair per sub-block: every
		// cone pass restores alignment, so the pairs are reusable across
		// the whole fault list.
		var goodWs, badWs [logic.BlockWords]*sim.Packed
		for w := range goodWs {
			g, err := sim.NewPacked(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.LoadPatterns(pats[w*64 : (w+1)*64]); err != nil {
				t.Fatal(err)
			}
			g.Run()
			goodWs[w] = g
			badWs[w] = g.Compiled().NewPacked()
			badWs[w].AlignTo(g)
		}
		for _, f := range faults {
			cone, err := n.FanoutConeOrdered(f.Gate)
			if err != nil {
				t.Fatal(err)
			}
			site := sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}
			for alarms := range 2 {
				diffB := badB.RunConeWithAlarms(goodB, cone, site, alarms)
				for w := 0; w < logic.BlockWords; w++ {
					diffW := badWs[w].RunConeWithAlarms(goodWs[w], cone, site, alarms)
					if diffB[w] != diffW {
						t.Fatalf("%s: fault %s, %d alarms, word %d: block diff %x != word diff %x",
							name, f.Describe(n), alarms, w, diffB[w], diffW)
					}
				}
			}
		}
	}
}

// TestRunConeAlignedBlockRestoresAlignment verifies the invariant the
// session hot loop depends on: after a wide cone pass the faulty
// machine's blocks equal the good machine's everywhere.
func TestRunConeAlignedBlockRestoresAlignment(t *testing.T) {
	n := combView(t, "c17")
	pats := blockPatterns(n, 256, 5)
	good, err := sim.NewPackedBlock(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.LoadPatterns(pats); err != nil {
		t.Fatal(err)
	}
	good.Run()
	bad := good.Compiled().NewPackedBlock()
	bad.AlignTo(good)
	mask := logic.BlockMaskAll()
	for _, f := range fault.AllStuckAt(n) {
		cone, err := n.FanoutConeOrdered(f.Gate)
		if err != nil {
			t.Fatal(err)
		}
		bad.RunConeAligned(good, cone, sim.FaultSite{Gate: f.Gate, Pin: f.Pin, SA: f.Value}, &mask)
		for id := 0; id < n.NumGates(); id++ {
			if bad.Block(id) != good.Block(id) {
				t.Fatalf("fault %s: gate %q left misaligned", f.Describe(n), n.Gate(id).Name)
			}
		}
	}
}
