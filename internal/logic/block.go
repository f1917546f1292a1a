package logic

import "math/bits"

// This file defines the wide simulation block: BlockWords consecutive
// packed Words treated as one unit of 256 pattern slots. The wide
// fault-simulation kernels (sim.PackedBlock's Run and RunConeWithAlarms)
// evaluate whole blocks per gate so the schedule walk, fanin gather and
// opcode dispatch amortise over BlockWords words instead of being paid
// per 64 patterns. The word count is a compile-time constant: every op
// below is hand-unrolled over exactly BlockWords words, which is what
// lets the compiler keep the two-plane arithmetic in registers.
//
// All block operators take pointers and write through dst. dst may
// alias an operand: each word slot is read before it is written.

// BlockWords is the number of 64-slot Words in one wide block.
const BlockWords = 4

// BlockSlots is the number of pattern slots one wide block carries.
const BlockSlots = BlockWords * 64

// Block is a wide packed value: BlockWords consecutive Words, pattern
// slot k living in word k/64, bit k%64. The zero value holds X in every
// slot (both planes clear), matching Word.
type Block [BlockWords]Word

// BlockMask is a per-slot mask over a Block, one uint64 per word —
// the wide analogue of the uint64 slot masks the 64-bit kernels use.
type BlockMask [BlockWords]uint64

// BlockMaskAll returns the mask selecting every slot of a block.
func BlockMaskAll() BlockMask {
	return BlockMask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// FirstSlot returns the index of the lowest set slot in m, or -1 when m
// is empty — the first detecting pattern of a wide difference mask.
func (m *BlockMask) FirstSlot() int {
	for w := 0; w < BlockWords; w++ {
		if m[w] != 0 {
			return w<<6 + bits.TrailingZeros64(m[w])
		}
	}
	return -1
}

// Any reports whether any slot of m is set.
func (m *BlockMask) Any() bool {
	return m[0]|m[1]|m[2]|m[3] != 0
}

// Get returns the value of pattern slot i (i < BlockSlots).
func (b *Block) Get(i uint) V { return b[i>>6].Get(i & 63) }

// Set assigns pattern slot i (i < BlockSlots).
func (b *Block) Set(i uint, v V) { b[i>>6] = b[i>>6].Set(i&63, v) }

// BlockAll returns a Block holding the same value in every slot.
func BlockAll(v V) Block {
	w := WordAll(v)
	return Block{w, w, w, w}
}

// NotB writes the slot-wise complement of a into dst.
func NotB(dst, a *Block) {
	dst[0] = NotW(a[0])
	dst[1] = NotW(a[1])
	dst[2] = NotW(a[2])
	dst[3] = NotW(a[3])
}

// AndB writes the slot-wise conjunction of a and b into dst.
func AndB(dst, a, b *Block) {
	dst[0] = AndW(a[0], b[0])
	dst[1] = AndW(a[1], b[1])
	dst[2] = AndW(a[2], b[2])
	dst[3] = AndW(a[3], b[3])
}

// OrB writes the slot-wise disjunction of a and b into dst.
func OrB(dst, a, b *Block) {
	dst[0] = OrW(a[0], b[0])
	dst[1] = OrW(a[1], b[1])
	dst[2] = OrW(a[2], b[2])
	dst[3] = OrW(a[3], b[3])
}

// XorB writes the slot-wise exclusive-or of a and b into dst.
func XorB(dst, a, b *Block) {
	dst[0] = XorW(a[0], b[0])
	dst[1] = XorW(a[1], b[1])
	dst[2] = XorW(a[2], b[2])
	dst[3] = XorW(a[3], b[3])
}

// MuxB writes the slot-wise multiplexer of d0/d1 under sel into dst.
func MuxB(dst, sel, d0, d1 *Block) {
	dst[0] = MuxW(sel[0], d0[0], d1[0])
	dst[1] = MuxW(sel[1], d0[1], d1[1])
	dst[2] = MuxW(sel[2], d0[2], d1[2])
	dst[3] = MuxW(sel[3], d0[3], d1[3])
}

// DiffB accumulates into m the slots where a and b hold different known
// values — the wide analogue of DiffW, OR-folded so one mask collects
// the differences over several compared outputs.
func DiffB(a, b *Block, m *BlockMask) {
	m[0] |= DiffW(a[0], b[0])
	m[1] |= DiffW(a[1], b[1])
	m[2] |= DiffW(a[2], b[2])
	m[3] |= DiffW(a[3], b[3])
}
