package sim

import (
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// This file holds the wide-block kernels of the compiled machine: the
// same schedule walks as compiled.go, evaluating logic.BlockWords packed
// words (256 pattern slots) per gate instead of one. Widening amortises
// the per-gate overhead that does not scale with pattern count — opcode
// dispatch, fanin-offset loads, cone membership bookkeeping, the
// output-diff fold and the alignment restore — over four words, which
// is where the ns/gate-eval win over the 64-bit path comes from.
//
// The 64-bit kernels remain the differential oracle: every block kernel
// is pinned word-for-word to four single-word passes by the tests in
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

// mergeMaskB replaces the masked slots of dst with the forced word,
// word by word — the wide mirror of mergeMask with a splatted operand.
func mergeMaskB(dst *logic.Block, forced logic.Word, mask *logic.BlockMask) {
	dst[0] = mergeMask(dst[0], forced, mask[0])
	dst[1] = mergeMask(dst[1], forced, mask[1])
	dst[2] = mergeMask(dst[2], forced, mask[2])
	dst[3] = mergeMask(dst[3], forced, mask[3])
}

// RunBlock performs one fault-free full combinational pass over the wide
// machine state in blocks (indexed by gate ID; inputs and DFF slots are
// consumed as-is) — the 256-pattern mirror of Run.
func (c *Compiled) RunBlock(blocks []logic.Block) {
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		evalOpB(c.code[id], fanin[off[id]:off[id+1]], blocks, &blocks[id])
	}
}

// RunConeAlignedBlock is the wide hot-path cone pass: it requires the
// alignment invariant — blocks[i] == good[i] for every gate outside the
// cone — evaluates the cone's gates over all BlockWords words, folds the
// per-word difference masks over the cone's reachable primary outputs,
// and restores the cone gates' blocks from good. It returns the wide
// diff mask (callers apply their pattern mask) and the number of gates
// evaluated; each counted gate processed BlockWords words. The last
// alarms primary outputs are alarms, as in RunConeAligned.
func (c *Compiled) RunConeAlignedBlock(blocks, good, scratch []logic.Block, cone *netlist.Cone, f FaultSite, mask *logic.BlockMask, alarms int) (diff logic.BlockMask, evals int) {
	evals = c.runConeEvalBlock(blocks, good, scratch, cone, f, mask)
	firstAlarm := len(c.outputs) - alarms
	var alarm logic.BlockMask
	for _, oi := range cone.Outputs {
		oid := c.outputs[oi]
		if oi < firstAlarm {
			logic.DiffB(&good[oid], &blocks[oid], &diff)
		} else {
			logic.DiffB(&good[oid], &blocks[oid], &alarm)
		}
	}
	for _, id := range cone.Order {
		blocks[id] = good[id]
	}
	for w := range diff {
		diff[w] &^= alarm[w]
	}
	return diff, evals
}

// runConeEvalBlock is the wide cone evaluation loop, mirroring
// runConeEval: the fault is applied once at the cone root (the standard
// case, membership-test-free) with a general checking loop for foreign
// cones. It assumes every out-of-cone block a cone gate reads already
// equals its good-machine value.
func (c *Compiled) runConeEvalBlock(blocks, good, scratch []logic.Block, cone *netlist.Cone, f FaultSite, mask *logic.BlockMask) int {
	order := cone.Order
	if len(order) == 0 {
		return 0
	}
	forced := logic.WordAll(f.SA)
	fanin, off := c.fanin, c.faninOff
	if root := order[0]; root == f.Gate {
		evals := 0
		id := int32(root)
		if op := c.code[id]; op == opHold {
			// An Input/DFF root holds its value; only an output-site
			// fault forces it.
			blocks[id] = good[id]
			if f.Pin < 0 {
				mergeMaskB(&blocks[id], forced, mask)
			}
		} else {
			if f.Pin >= 0 {
				// A pin fault must only affect this one pin even when
				// the same driver feeds several pins of this gate.
				fan := fanin[off[id]:off[id+1]]
				vals := scratch[:len(fan)]
				for i, fi := range fan {
					vals[i] = blocks[fi]
				}
				mergeMaskB(&vals[f.Pin], forced, mask)
				c.evalOpValsB(op, vals, &blocks[id])
			} else {
				evalOpB(op, fanin[off[id]:off[id+1]], blocks, &blocks[id])
				mergeMaskB(&blocks[id], forced, mask)
			}
			evals++
		}
		// Strict combinational successors of the root: never opHold,
		// never the fault site — the maximally lean inner loop.
		for _, oid := range order[1:] {
			id := int32(oid)
			evalOpB(c.code[id], fanin[off[id]:off[id+1]], blocks, &blocks[id])
			evals++
		}
		return evals
	}
	evals := 0
	fg := int32(f.Gate)
	for _, oid := range order {
		id := int32(oid)
		op := c.code[id]
		if op == opHold {
			// Only the root can be a cone Input/DFF (nothing combinational
			// drives them), and only an output-site fault forces it.
			blocks[id] = good[id]
			if id == fg && f.Pin < 0 {
				mergeMaskB(&blocks[id], forced, mask)
			}
			continue
		}
		if id == fg && f.Pin >= 0 {
			fan := fanin[off[id]:off[id+1]]
			vals := scratch[:len(fan)]
			for i, fi := range fan {
				vals[i] = blocks[fi]
			}
			mergeMaskB(&vals[f.Pin], forced, mask)
			c.evalOpValsB(op, vals, &blocks[id])
		} else {
			evalOpB(op, fanin[off[id]:off[id+1]], blocks, &blocks[id])
		}
		if id == fg && f.Pin < 0 {
			mergeMaskB(&blocks[id], forced, mask)
		}
		evals++
	}
	return evals
}
