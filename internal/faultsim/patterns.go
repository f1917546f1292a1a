package faultsim

import (
	"math/rand"

	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// The lag and tap of math/rand's additive lagged Fibonacci source: past
// its first lagLen outputs, y[k] = y[k-lagLen] + y[k-lagTap] mod 2^64.
// The source's outputs are frozen by math/rand's own regression test,
// so the recurrence is as stable as the stream RandomPatterns promises.
const (
	lagLen = 607
	lagTap = 273
)

// stream yields the pattern bits of a seed: bit 32 of each successive
// output of rand.NewSource(seed), which is the bit rng.Int63()>>32&1
// reads and rng.Intn(2) draws. It takes the source's first lagLen
// outputs through Uint64 and then advances them in place, a whole round
// at a time, instead of calling the source once per bit.
type stream struct {
	r [lagLen]uint64 // the current round of outputs
	i int            // the next unread output in r
}

func newStream(seed int64) *stream {
	src := rand.NewSource(seed).(rand.Source64)
	s := &stream{}
	for j := range s.r {
		s.r[j] = src.Uint64()
	}
	return s
}

// take returns the next outputs: n of them, or the rest of the round if
// that is shorter. The slice aliases the round and is valid until the
// next take.
func (s *stream) take(n int) []uint64 {
	if s.i == lagLen {
		s.advance()
	}
	out := s.r[s.i:min(s.i+n, lagLen)]
	s.i += len(out)
	return out
}

// advance replaces the round with the next lagLen outputs. Output j of
// the new round is y[j] + y[j+lagLen-lagTap]: the second term is still
// in the old round for j < lagTap and already in the new one from there.
func (s *stream) advance() {
	for j := 0; j < lagTap; j++ {
		s.r[j] += s.r[j+lagLen-lagTap]
	}
	for j := lagTap; j < lagLen; j++ {
		s.r[j] += s.r[j-lagTap]
	}
	s.i = 0
}

// fillBlock draws the next slots patterns into one all-X block of a
// packed set, one word per input: pattern k's bit for input i sets slot
// k of blk[i]'s V1 plane, and V0 is V1's complement over the slots.
func (s *stream) fillBlock(blk []logic.Word, slots int) {
	for k := range uint(slots) {
		for row := blk; len(row) > 0; {
			vals := s.take(len(row))
			for j, v := range vals {
				row[j].V1 |= (v >> 32 & 1) << (k & 63) // k < 64: no shift check
			}
			row = row[len(vals):]
		}
	}
	mask := ^uint64(0) >> (64 - slots)
	for i := range blk {
		blk[i].V0 = ^blk[i].V1 & mask
	}
}

// RandomPatterns generates count uniformly random fully specified input
// vectors for the circuit, deterministically from seed.
//
// Input i of pattern k is bit 32 of the source's (k*width+i)-th output:
// the bit rng.Int63()>>32&1 reads, which is rng.Intn(2) as math/rand
// computes it for a power of two. The bits come from the same stream as
// RandomPackedPatterns' words and are written straight into one backing
// array. Each vector is capped at its own length, so an append to one
// cannot write into the next.
func RandomPatterns(n *netlist.Netlist, count int, seed int64) []logic.Vector {
	width := len(n.Inputs)
	backing := make(logic.Vector, count*width)
	s := newStream(seed)
	for rest := backing; len(rest) > 0; {
		vals := s.take(len(rest))
		for j, v := range vals {
			rest[j] = logic.V(v >> 32 & 1) // Zero is 0 and One is 1
		}
		rest = rest[len(vals):]
	}
	out := make([]logic.Vector, count)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// RandomPackedPatterns generates the set RandomPatterns does for the
// same circuit, count and seed, straight into the words of a packed set:
// sim.PackPatterns of RandomPatterns' vectors, without the vectors.
// Those would be count*(width+24) bytes of garbage per set, and their
// transpose costs more than the stream: on a 2-vCPU VM a 32768×32 set
// takes 3.3–3.7 ms in words against 5.3–6.0 ms packed from vectors.
func RandomPackedPatterns(n *netlist.Netlist, count int, seed int64) *sim.Patterns {
	p := sim.NewPatterns(len(n.Inputs), count)
	s := newStream(seed)
	for b := range p.Blocks() {
		s.fillBlock(p.Block(b), min(64, count-64*b))
	}
	return p
}
