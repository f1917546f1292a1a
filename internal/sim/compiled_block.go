package sim

import (
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// This file holds the wide-block evaluators of the compiled machine,
// which PackedBlock's passes run: the same gate evaluation as
// compiled.go over logic.BlockWords packed words (256 pattern slots)
// per gate instead of one. Widening amortises the per-gate overhead
// that does not scale with pattern count — opcode dispatch,
// fanin-offset loads, cone membership bookkeeping, the output-diff fold
// and the alignment restore — over four words, which is where the
// ns/gate-eval win over the 64-bit path comes from.
//
// The 64-bit passes remain the differential oracle: every block pass is
// pinned word-for-word to four single-word passes by the tests in
// block_test.go.

// BlockPatterns is the number of patterns one wide pass consumes.
const BlockPatterns = logic.BlockSlots

// newBlocks allocates a wide word-state array (one machine's state).
func (c *Compiled) newBlocks() []logic.Block { return make([]logic.Block, len(c.code)) }

// newBlockScratch allocates the wide fanin gather buffer used by the
// faulted-pin block passes.
func (c *Compiled) newBlockScratch() []logic.Block { return make([]logic.Block, c.maxFanin) }

// evalOpB evaluates one gate over a whole block: the wide mirror of
// evalOpW, writing through dst so block values never travel by value.
// dst must not alias a fanin block (combinational gates never feed
// themselves).
func evalOpB(op opcode, fan []int32, blocks []logic.Block, dst *logic.Block) {
	switch op {
	case opAnd2:
		logic.AndB(dst, &blocks[fan[0]], &blocks[fan[1]])
	case opNand2:
		logic.AndB(dst, &blocks[fan[0]], &blocks[fan[1]])
		logic.NotB(dst, dst)
	case opOr2:
		logic.OrB(dst, &blocks[fan[0]], &blocks[fan[1]])
	case opNor2:
		logic.OrB(dst, &blocks[fan[0]], &blocks[fan[1]])
		logic.NotB(dst, dst)
	case opXor2:
		logic.XorB(dst, &blocks[fan[0]], &blocks[fan[1]])
	case opXnor2:
		logic.XorB(dst, &blocks[fan[0]], &blocks[fan[1]])
		logic.NotB(dst, dst)
	case opBuf:
		*dst = blocks[fan[0]]
	case opNot:
		logic.NotB(dst, &blocks[fan[0]])
	case opMux:
		logic.MuxB(dst, &blocks[fan[0]], &blocks[fan[1]], &blocks[fan[2]])
	case opAndN, opNandN:
		*dst = blocks[fan[0]]
		for _, f := range fan[1:] {
			logic.AndB(dst, dst, &blocks[f])
		}
		if op == opNandN {
			logic.NotB(dst, dst)
		}
	case opOrN, opNorN:
		*dst = blocks[fan[0]]
		for _, f := range fan[1:] {
			logic.OrB(dst, dst, &blocks[f])
		}
		if op == opNorN {
			logic.NotB(dst, dst)
		}
	case opXorN, opXnorN:
		*dst = blocks[fan[0]]
		for _, f := range fan[1:] {
			logic.XorB(dst, dst, &blocks[f])
		}
		if op == opXnorN {
			logic.NotB(dst, dst)
		}
	default:
		panic(unhandledOpcode(op))
	}
}

// evalOpValsB evaluates one gate from already-gathered positional fanin
// blocks — the wide pin-fault path, through the identity index slice
// like evalOpVals.
func (c *Compiled) evalOpValsB(op opcode, vals []logic.Block, dst *logic.Block) {
	evalOpB(op, c.identity[:len(vals)], vals, dst)
}

// evalOpFaultedB is the wide mirror of evalOpFaultedW, writing the
// fault-site gate's block through dst.
func (c *Compiled) evalOpFaultedB(op opcode, fan []int32, blocks, scratch []logic.Block, f FaultSite, dst *logic.Block) {
	if f.Pin < 0 {
		*dst = logic.BlockAll(f.SA)
		return
	}
	vals := scratch[:len(fan)]
	for i, fi := range fan {
		vals[i] = blocks[fi]
	}
	vals[f.Pin] = logic.BlockAll(f.SA)
	c.evalOpValsB(op, vals, dst)
}

// runConeEvalBlock is the wide cone evaluation loop, mirroring
// runConeEval: the fault is applied once at the cone root and the rest
// of the cone runs as a plain pass.
func (c *Compiled) runConeEvalBlock(blocks, scratch []logic.Block, cone *netlist.Cone, f FaultSite) {
	if f.Gate != cone.Root {
		panic(foreignCone(f, cone))
	}
	fanin, off := c.fanin, c.faninOff
	if root := int32(cone.Root); f.Pin < 0 || c.code[root] != opHold {
		c.evalOpFaultedB(c.code[root], fanin[off[root]:off[root+1]], blocks, scratch, f, &blocks[root])
	}
	for _, oid := range cone.Order[1:] {
		id := int32(oid)
		evalOpB(c.code[id], fanin[off[id]:off[id+1]], blocks, &blocks[id])
	}
}
