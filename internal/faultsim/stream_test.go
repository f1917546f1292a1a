package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// inputsOnly returns a netlist of width primary inputs and nothing else:
// all the pattern generators read of a circuit is its input count.
func inputsOnly(t *testing.T, width int) *netlist.Netlist {
	t.Helper()
	n := netlist.New(fmt.Sprintf("in%d", width))
	for i := 0; i < width; i++ {
		if _, err := n.AddInput(fmt.Sprintf("i%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestRandomPatternsFollowInt63Stream pins both pattern generators to
// their stream: input i of pattern k is bit 32 of the (k*width+i)-th
// Int63 of rand.New(rand.NewSource(seed)), drawn pattern by pattern, in
// RandomPatterns' vectors and in slot k%64 of RandomPackedPatterns'
// block k/64 alike; the set equals PackPatterns of the vectors word for
// word, and every slot past the count is X.
// The counts straddle the 64-pattern word and the source's 607-value
// round, and the seeds cover zero, a negative seed and both sides of
// 2^31.
func TestRandomPatternsFollowInt63Stream(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1 << 40} {
		for _, width := range []int{1, 7, 64, 65} {
			n := inputsOnly(t, width)
			for _, count := range []int{0, 1, 63, 64, 65, 607, 4113} {
				pats := RandomPatterns(n, count, seed)
				packed := RandomPackedPatterns(n, count, seed)
				if len(pats) != count || packed.Len() != count {
					t.Fatalf("seed %d width %d: %d vectors and a set of %d patterns, want %d",
						seed, width, len(pats), packed.Len(), count)
				}
				rng := rand.New(rand.NewSource(seed))
				for k, pat := range pats {
					if len(pat) != width {
						t.Fatalf("seed %d width %d count %d: pattern %d has %d values", seed, width, count, k, len(pat))
					}
					blk := packed.Block(k / 64)
					for i, v := range pat {
						want := logic.FromBool(rng.Int63()>>32&1 == 1)
						if v != want {
							t.Fatalf("seed %d width %d count %d: pattern %d input %d = %v, want %v",
								seed, width, count, k, i, v, want)
						}
						if got := blk[i].Get(uint(k % 64)); got != want {
							t.Fatalf("seed %d width %d count %d: packed pattern %d input %d = %v, want %v",
								seed, width, count, k, i, got, want)
						}
					}
				}
				// Word for word, the set is the vectors' packing: this
				// also rules out the unused V0=V1=1 encoding.
				ref := sim.PackPatterns(width, pats)
				for b := range ref.Blocks() {
					if !slices.Equal(packed.Block(b), ref.Block(b)) {
						t.Fatalf("seed %d width %d count %d: packed block %d differs from PackPatterns", seed, width, count, b)
					}
				}
				for k := count; k < 64*packed.Blocks(); k++ {
					for i, w := range packed.Block(k / 64) {
						if got := w.Get(uint(k % 64)); got != logic.X {
							t.Fatalf("seed %d width %d count %d: packed slot %d input %d past the count = %v, want X",
								seed, width, count, k, i, got)
						}
					}
				}
			}
		}
	}
}
