package sim_test

import (
	"testing"

	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// loaderPatterns returns blockPatterns' X-laden vectors with every
// fifth one cut short, and every eleventh one a value longer than the
// circuit, so the loaders see inputs past a vector's end (X) and values
// past the circuit's width (ignored).
func loaderPatterns(n *netlist.Netlist, count int) []logic.Vector {
	pats := blockPatterns(n, count, int64(count)+3)
	for k, p := range pats {
		switch {
		case k%5 == 4:
			pats[k] = p[:k%len(p)]
		case k%11 == 10:
			pats[k] = append(p.Clone(), logic.One, logic.Zero)
		}
	}
	return pats
}

// TestLoadBlockMatchesLoadPatterns pins the packed-set loaders to the
// vector ones: for every block of a packed set, Packed.LoadBlock must
// stage exactly the input words Packed.LoadPatterns stages for the
// block's vectors, and PackedBlock.LoadBlock exactly what
// PackedBlock.LoadPatterns stages for the 256 vectors from there. The
// counts leave a partial last block on both widths, and 0 leaves none.
func TestLoadBlockMatchesLoadPatterns(t *testing.T) {
	for _, name := range []string{"c17", "alu8", "s27", "mul4"} {
		n := combView(t, name)
		vec, err := sim.NewPacked(n)
		if err != nil {
			t.Fatal(err)
		}
		wvec := vec.Compiled().NewPackedBlock()
		set, wset := vec.Compiled().NewPacked(), vec.Compiled().NewPackedBlock()
		for _, count := range []int{0, 1, 63, 64, 65, 300} {
			pats := loaderPatterns(n, count)
			packed := sim.PackPatterns(len(n.Inputs), pats)
			if packed.Len() != count || packed.Blocks() != (count+63)/64 {
				t.Fatalf("%s: packed %d patterns as Len %d, Blocks %d", name, count, packed.Len(), packed.Blocks())
			}
			for b := range packed.Blocks() {
				if err := vec.LoadPatterns(pats[64*b : min(64*b+64, count)]); err != nil {
					t.Fatal(err)
				}
				if err := set.LoadBlock(packed, b); err != nil {
					t.Fatal(err)
				}
				for _, id := range n.Inputs {
					if got, want := set.Word(id), vec.Word(id); got != want {
						t.Fatalf("%s (%d patterns): block %d input %q: LoadBlock %+v, LoadPatterns %+v",
							name, count, b, n.Gate(id).Name, got, want)
					}
				}
				if b%logic.BlockWords != 0 {
					continue
				}
				if err := wvec.LoadPatterns(pats[64*b : min(64*b+sim.BlockPatterns, count)]); err != nil {
					t.Fatal(err)
				}
				if err := wset.LoadBlock(packed, b); err != nil {
					t.Fatal(err)
				}
				for _, id := range n.Inputs {
					if got, want := wset.Block(id), wvec.Block(id); got != want {
						t.Fatalf("%s (%d patterns): wide block %d input %q: LoadBlock %+v, LoadPatterns %+v",
							name, count, b, n.Gate(id).Name, got, want)
					}
				}
			}
		}
	}
}

// TestPackReusesAndMatchesPackPatterns checks that repacking one set,
// larger then smaller, leaves exactly what a fresh PackPatterns holds.
func TestPackReusesAndMatchesPackPatterns(t *testing.T) {
	n := combView(t, "alu8")
	var reused sim.Patterns
	for _, count := range []int{300, 65, 1} {
		pats := loaderPatterns(n, count)
		reused.Pack(len(n.Inputs), pats)
		fresh := sim.PackPatterns(len(n.Inputs), pats)
		if reused.Len() != fresh.Len() || reused.Blocks() != fresh.Blocks() {
			t.Fatalf("%d patterns: repacked Len %d Blocks %d, fresh Len %d Blocks %d",
				count, reused.Len(), reused.Blocks(), fresh.Len(), fresh.Blocks())
		}
		for b := range fresh.Blocks() {
			got, want := reused.Block(b), fresh.Block(b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d patterns: block %d input %d: repacked %+v, fresh %+v", count, b, i, got[i], want[i])
				}
			}
			if reused.Mask(b) != fresh.Mask(b) {
				t.Fatalf("%d patterns: block %d mask %x, want %x", count, b, reused.Mask(b), fresh.Mask(b))
			}
		}
	}
}

// TestLoadBlockRejectsWidthMismatch checks that both loaders refuse a
// set packed for a different input count.
func TestLoadBlockRejectsWidthMismatch(t *testing.T) {
	n := combView(t, "c17")
	pats := loaderPatterns(n, 70)
	p, err := sim.NewPacked(n)
	if err != nil {
		t.Fatal(err)
	}
	wp := p.Compiled().NewPackedBlock()
	for _, width := range []int{len(n.Inputs) - 1, len(n.Inputs) + 1} {
		set := sim.PackPatterns(width, pats)
		if err := p.LoadBlock(set, 0); err == nil {
			t.Errorf("Packed.LoadBlock accepted a set of %d inputs for %d", width, len(n.Inputs))
		}
		if err := wp.LoadBlock(set, 0); err == nil {
			t.Errorf("PackedBlock.LoadBlock accepted a set of %d inputs for %d", width, len(n.Inputs))
		}
	}
}
