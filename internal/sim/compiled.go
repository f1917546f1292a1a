package sim

import (
	"fmt"
	"slices"

	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/obs"
)

// obsCompiles counts actual netlist-to-SoA compilations (artifact-cache
// misses of the compiled machine). The hot kernels below are
// deliberately uninstrumented: gate-eval totals are flushed as
// aggregates by the layers that already count them exactly
// (faultsim.Session), never per gate — the obs overhead budget.
var obsCompiles = obs.NewCounter("sim_compiles_total", "Netlist-to-SoA machine compilations performed.")

// Compiled is a netlist compiled to a flat structure-of-arrays machine:
// the representation every packed simulation pass executes. Instead of
// chasing *netlist.Gate pointers and calling a per-fanin closure for
// every evaluation, the compiled machine holds
//
//   - one dense op array (ops[id] = gate type),
//   - one flat fanin arena (fanin[faninOff[id]:faninOff[id+1]] = the
//     fanin gate IDs of gate id, pin order preserved),
//   - one flat fanout arena (fanout[fanoutOff[id]:fanoutOff[id+1]] = the
//     gates reading gate id, one entry per reading pin, in
//     netlist.Gate.Fanout order),
//   - the levelized evaluation schedule (the combinational gate IDs in
//     (level, id) order — exactly the gates one full pass evaluates),
//     each gate's rank (its schedule position), and a rank arena
//     beside the fanout arena (fanRank[fanoutOff[id]:fanoutOff[id+1]]
//     = the ranks of gate id's readers, ascending),
//   - and the input/output/DFF index slices,
//
// so the inner loops are closure-free slice walks over int32 indices.
// Word state lives outside the Compiled in plain []logic.Word arrays
// (one per machine), which is what lets one Compiled serve every good
// and faulty machine — and every concurrent campaign job — of a circuit.
//
// A Compiled is immutable after construction and safe for concurrent
// use. Compile memoises it on the netlist through the same
// mutation-invalidated cache that backs the cone cache, so all layers
// (sim.Packed, faultsim.Session, atpg, campaign) share one compilation
// per circuit structure.
type Compiled struct {
	N *netlist.Netlist

	code      []opcode // per gate ID: gate type fused with fanin arity
	faninOff  []int32  // len NumGates+1: prefix offsets into fanin
	fanin     []int32  // flat fanin arena
	fanoutOff []int32  // len NumGates+1: prefix offsets into fanout
	fanout    []int32  // flat fanout arena, netlist.Gate.Fanout order
	schedule  []int32  // combinational gate IDs in (level, id) order
	rank      []int32  // per gate ID: schedule position, -1 for Input/DFF
	fanRank   []int32  // per fanout arena entry: readers' ranks, ascending per gate
	inputs    []int32  // primary input gate IDs in declaration order
	outputs   []int32  // primary output gate IDs in declaration order
	dffs      []int32  // DFF gate IDs in declaration order
	identity  []int32  // 0..maxFanin-1: evaluates gathered values through evalOp{W,B}
	maxFanin  int
}

// opcode is the compiled per-gate operation: the gate type fused with
// its fanin arity, so the dominant two-input gates dispatch straight to
// a two-load evaluation with no fold loop or bounds-checked iteration.
type opcode uint8

const (
	opHold opcode = iota // Input/DFF: value held, never recomputed
	opBuf
	opNot
	opMux
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// encodeOp compiles one gate's type and fanin count to its opcode.
func encodeOp(t netlist.GateType, nfanin int) (opcode, error) {
	two := nfanin == 2
	switch t {
	case netlist.Input, netlist.DFF:
		return opHold, nil
	case netlist.Buf:
		return opBuf, nil
	case netlist.Not:
		return opNot, nil
	case netlist.Mux:
		return opMux, nil
	case netlist.And:
		if two {
			return opAnd2, nil
		}
		return opAndN, nil
	case netlist.Nand:
		if two {
			return opNand2, nil
		}
		return opNandN, nil
	case netlist.Or:
		if two {
			return opOr2, nil
		}
		return opOrN, nil
	case netlist.Nor:
		if two {
			return opNor2, nil
		}
		return opNorN, nil
	case netlist.Xor:
		if two {
			return opXor2, nil
		}
		return opXorN, nil
	case netlist.Xnor:
		if two {
			return opXnor2, nil
		}
		return opXnorN, nil
	}
	return opHold, fmt.Errorf("sim: cannot compile gate type %v", t)
}

// compiledArtifactKey keys the memoised Compiled on the netlist.
const compiledArtifactKey = "sim.Compiled"

// Compile returns the netlist's compiled machine, building it on first
// use and memoising it on the netlist. The cache is invalidated by any
// structural mutation (AddGate, AddInput, MarkOutput), so a stale
// machine is never returned; repeated calls — every NewPacked, every
// faultsim session, every campaign job over one netlist — share one
// compilation.
func Compile(n *netlist.Netlist) (*Compiled, error) {
	v, err := n.Artifact(compiledArtifactKey, func() (any, error) {
		return compile(n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Compiled), nil
}

// compile performs the actual netlist-to-SoA translation.
func compile(n *netlist.Netlist) (*Compiled, error) {
	obsCompiles.Inc()
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	ng := n.NumGates()
	c := &Compiled{
		N:         n,
		code:      make([]opcode, ng),
		faninOff:  make([]int32, ng+1),
		fanoutOff: make([]int32, ng+1),
		inputs:    toInt32(n.Inputs),
		outputs:   toInt32(n.Outputs),
		dffs:      toInt32(n.DFFs),
	}
	arena, outArena := 0, 0
	for id := 0; id < ng; id++ {
		g := n.Gate(id)
		op, err := encodeOp(g.Type, len(g.Fanin))
		if err != nil {
			return nil, err
		}
		c.code[id] = op
		c.faninOff[id] = int32(arena)
		c.fanoutOff[id] = int32(outArena)
		arena += len(g.Fanin)
		outArena += len(g.Fanout)
		if len(g.Fanin) > c.maxFanin {
			c.maxFanin = len(g.Fanin)
		}
	}
	c.faninOff[ng] = int32(arena)
	c.fanoutOff[ng] = int32(outArena)
	c.fanin = make([]int32, 0, arena)
	c.fanout = make([]int32, 0, outArena)
	for id := 0; id < ng; id++ {
		g := n.Gate(id)
		for _, f := range g.Fanin {
			c.fanin = append(c.fanin, int32(f))
		}
		for _, f := range g.Fanout {
			c.fanout = append(c.fanout, int32(f))
		}
	}
	c.schedule = make([]int32, 0, ng-len(n.Inputs)-len(n.DFFs))
	c.rank = make([]int32, ng)
	for _, id := range order {
		c.rank[id] = -1
		if c.code[id] != opHold {
			c.rank[id] = int32(len(c.schedule))
			c.schedule = append(c.schedule, int32(id))
		}
	}
	c.fanRank = make([]int32, len(c.fanout))
	for i, fo := range c.fanout {
		c.fanRank[i] = c.rank[fo]
	}
	for id := 0; id < ng; id++ {
		slices.Sort(c.fanRank[c.fanoutOff[id]:c.fanoutOff[id+1]])
	}
	c.identity = make([]int32, c.maxFanin)
	for i := range c.identity {
		c.identity[i] = int32(i)
	}
	return c, nil
}

func toInt32(s []int) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// NumGates returns the number of gates including primary inputs.
func (c *Compiled) NumGates() int { return len(c.code) }

// ScheduleLen returns the number of combinational gates one full pass
// evaluates — the per-pass gate-evaluation cost.
func (c *Compiled) ScheduleLen() int { return len(c.schedule) }

// newWords allocates a word array (one machine's state) for the circuit.
func (c *Compiled) newWords() []logic.Word { return make([]logic.Word, len(c.code)) }

// newScratch allocates the per-machine fanin gather buffer used by the
// faulted-pin and cone passes. It is machine state, not Compiled state,
// so concurrent machines sharing one Compiled never contend.
func (c *Compiled) newScratch() []logic.Word { return make([]logic.Word, c.maxFanin) }

// unhandledOpcode builds the panic message for a corrupt opcode out of
// line, keeping the kernel functions themselves fmt-free (enforced by
// rescue-lint's hotpath pass).
func unhandledOpcode(op opcode) string {
	return fmt.Sprintf("sim: unhandled opcode %d", op)
}

// evalOpW evaluates one gate whose fanin values are read from words by
// index — the closure-free hot kernel of every full pass. The two-input
// opcodes (the bulk of any mapped netlist) dispatch straight to two
// loads and the word operation.
func evalOpW(op opcode, fan []int32, words []logic.Word) logic.Word {
	switch op {
	case opAnd2:
		return logic.AndW(words[fan[0]], words[fan[1]])
	case opNand2:
		return logic.NotW(logic.AndW(words[fan[0]], words[fan[1]]))
	case opOr2:
		return logic.OrW(words[fan[0]], words[fan[1]])
	case opNor2:
		return logic.NotW(logic.OrW(words[fan[0]], words[fan[1]]))
	case opXor2:
		return logic.XorW(words[fan[0]], words[fan[1]])
	case opXnor2:
		return logic.NotW(logic.XorW(words[fan[0]], words[fan[1]]))
	case opBuf:
		return words[fan[0]]
	case opNot:
		return logic.NotW(words[fan[0]])
	case opMux:
		return logic.MuxW(words[fan[0]], words[fan[1]], words[fan[2]])
	case opAndN, opNandN:
		acc := words[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.AndW(acc, words[f])
		}
		if op == opNandN {
			acc = logic.NotW(acc)
		}
		return acc
	case opOrN, opNorN:
		acc := words[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.OrW(acc, words[f])
		}
		if op == opNorN {
			acc = logic.NotW(acc)
		}
		return acc
	case opXorN, opXnorN:
		acc := words[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.XorW(acc, words[f])
		}
		if op == opXnorN {
			acc = logic.NotW(acc)
		}
		return acc
	}
	panic(unhandledOpcode(op))
}

// evalOpVals evaluates one gate from already-gathered fanin values — the
// pin-fault path, where one pin's observed value is substituted before
// evaluation. It reuses evalOpW through the identity index slice rather
// than carrying a second copy of the opcode switch.
func (c *Compiled) evalOpVals(op opcode, vals []logic.Word) logic.Word {
	return evalOpW(op, c.identity[:len(vals)], vals)
}

// Schedule returns the levelized evaluation schedule, the combinational
// gate IDs in (level, id) order, as a read-only view. Every gate sits
// after all of its fanins, so an event-driven pass can order its events
// by schedule position (PODEM implication does).
func (c *Compiled) Schedule() []int32 { return c.schedule }

// Fanin returns gate id's fanin gate IDs in pin order, as a read-only
// view of the compiled fanin arena.
func (c *Compiled) Fanin(id int) []int32 { return c.fanin[c.faninOff[id]:c.faninOff[id+1]] }

// Fanout returns the gates reading gate id, one entry per reading pin
// in netlist.Gate.Fanout order, as a read-only view of the compiled
// fanout arena. Slicing's faulty overlay queues readers in this order.
func (c *Compiled) Fanout(id int) []int32 { return c.fanout[c.fanoutOff[id]:c.fanoutOff[id+1]] }

// Rank returns gate id's position in Schedule, or -1 for an input or
// DFF, which no pass evaluates.
func (c *Compiled) Rank(id int) int32 { return c.rank[id] }

// ReaderRanks returns the ranks of the gates reading gate id, one entry
// per reading pin, in ascending order, as a read-only view. A queue
// keyed by rank (PODEM implication's) reads its span from the first and
// last entry.
func (c *Compiled) ReaderRanks(id int) []int32 {
	return c.fanRank[c.fanoutOff[id]:c.fanoutOff[id+1]]
}

// evalOpFaultedW evaluates the fault-site gate of a word pass: an output
// fault yields the stuck value in every slot, a pin fault makes only
// that pin observe it, even when the same net feeds several pins of the
// gate. scratch must hold at least maxFanin words.
func (c *Compiled) evalOpFaultedW(op opcode, fan []int32, words, scratch []logic.Word, f FaultSite) logic.Word {
	if f.Pin < 0 {
		return logic.WordAll(f.SA)
	}
	vals := scratch[:len(fan)]
	for i, fi := range fan {
		vals[i] = words[fi]
	}
	vals[f.Pin] = logic.WordAll(f.SA)
	return c.evalOpVals(op, vals)
}

// foreignCone builds the panic message for a fault passed with a cone
// not grown from its gate, out of line like unhandledOpcode.
func foreignCone(f FaultSite, cone *netlist.Cone) string {
	return fmt.Sprintf("sim: fault at gate %d passed with the cone of gate %d", f.Gate, cone.Root)
}

// runConeEval is the cone evaluation loop of Packed.RunConeWithAlarms
// over an aligned machine. The fault sits at the cone root: an output
// fault writes the stuck value into it, a pin fault evaluates it with
// that pin forced, and a DFF root's D-pin fault acts only at latch time,
// so that root keeps its aligned good word. Every later cone gate is a
// strict combinational successor of the root, so the rest of the cone
// runs as a plain pass with no per-gate fault tests.
func (c *Compiled) runConeEval(words, scratch []logic.Word, cone *netlist.Cone, f FaultSite) {
	if f.Gate != cone.Root {
		panic(foreignCone(f, cone))
	}
	fanin, off := c.fanin, c.faninOff
	if root := int32(cone.Root); f.Pin < 0 || c.code[root] != opHold {
		words[root] = c.evalOpFaultedW(c.code[root], fanin[off[root]:off[root+1]], words, scratch, f)
	}
	for _, oid := range cone.Order[1:] {
		id := int32(oid)
		words[id] = evalOpW(c.code[id], fanin[off[id]:off[id+1]], words)
	}
}
