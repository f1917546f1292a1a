package sim

import (
	"fmt"

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
	inputs    []int32  // primary input gate IDs in declaration order
	outputs   []int32  // primary output gate IDs in declaration order
	dffs      []int32  // DFF gate IDs in declaration order
	identity  []int32  // 0..maxFanin-1: evaluates gathered values through evalOp{W,V}
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
	for _, id := range order {
		if c.code[id] != opHold {
			c.schedule = append(c.schedule, int32(id))
		}
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

// evalOpV is the scalar mirror of evalOpW: one gate evaluated from the
// four-valued value array by index. Kept concrete (not generic) so the
// tiny logic ops inline into the switch — a generic kernel pays a
// dictionary-dispatched call per operand, which is measurable in the
// PODEM implication loop.
func evalOpV(op opcode, fan []int32, vals []logic.V) logic.V {
	switch op {
	case opAnd2:
		return logic.And(vals[fan[0]], vals[fan[1]])
	case opNand2:
		return logic.Not(logic.And(vals[fan[0]], vals[fan[1]]))
	case opOr2:
		return logic.Or(vals[fan[0]], vals[fan[1]])
	case opNor2:
		return logic.Not(logic.Or(vals[fan[0]], vals[fan[1]]))
	case opXor2:
		return logic.Xor(vals[fan[0]], vals[fan[1]])
	case opXnor2:
		return logic.Not(logic.Xor(vals[fan[0]], vals[fan[1]]))
	case opBuf:
		return logic.Buf(vals[fan[0]])
	case opNot:
		return logic.Not(vals[fan[0]])
	case opMux:
		return logic.Mux(vals[fan[0]], vals[fan[1]], vals[fan[2]])
	case opAndN, opNandN:
		acc := vals[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.And(acc, vals[f])
		}
		if op == opNandN {
			acc = logic.Not(acc)
		}
		return acc
	case opOrN, opNorN:
		acc := vals[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.Or(acc, vals[f])
		}
		if op == opNorN {
			acc = logic.Not(acc)
		}
		return acc
	case opXorN, opXnorN:
		acc := vals[fan[0]]
		for _, f := range fan[1:] {
			acc = logic.Xor(acc, vals[f])
		}
		if op == opXnorN {
			acc = logic.Not(acc)
		}
		return acc
	}
	panic(unhandledOpcode(op))
}

// evalOpValsV is the scalar mirror of evalOpVals: one gate evaluated
// from already-gathered positional fanin values, through evalOpV and
// the identity index slice.
func (c *Compiled) evalOpValsV(op opcode, vals []logic.V) logic.V {
	return evalOpV(op, c.identity[:len(vals)], vals)
}

// RunV performs one fault-free scalar pass over values (indexed by gate
// ID; inputs and DFF slots are consumed as-is) — the compiled engine
// behind Evaluator.Run and every scalar analysis pass (aging signal
// probabilities, formal equivalence sweeps, sequential golden machines).
func (c *Compiled) RunV(values []logic.V) {
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		values[id] = evalOpV(c.code[id], fanin[off[id]:off[id+1]], values)
	}
}

// RunVWithFault is the scalar twin of RunWithFault: one pass over values
// with a stuck-at fault injected. An output fault forces the
// site's value (an Input/DFF site up front, since it is never
// recomputed); a pin fault makes only the faulty gate observe the stuck
// value on that pin. scratch must hold at least maxFanin values (use
// NewValueScratch). A DFF D-pin fault acts only at latch time, which is
// the caller's clocking.
func (c *Compiled) RunVWithFault(values, scratch []logic.V, f FaultSite) {
	fg := int32(f.Gate)
	if f.Pin < 0 && c.code[fg] == opHold {
		values[fg] = f.SA
	}
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		fan := fanin[off[id]:off[id+1]]
		if id == fg {
			values[id] = c.evalOpFaultedV(c.code[id], fan, values, scratch, f)
		} else {
			values[id] = evalOpV(c.code[id], fan, values)
		}
	}
}

// evalOpFaultedV evaluates the fault-site gate of a scalar fault pass:
// an output fault yields the stuck value (every reader sees it), a pin
// fault makes only that pin observe the stuck value, even when the same
// net feeds several pins of the gate. scratch must hold at least
// maxFanin values.
func (c *Compiled) evalOpFaultedV(op opcode, fan []int32, values, scratch []logic.V, f FaultSite) logic.V {
	if f.Pin < 0 {
		return f.SA
	}
	vals := scratch[:len(fan)]
	for i, fi := range fan {
		vals[i] = values[fi]
	}
	vals[f.Pin] = f.SA
	return c.evalOpValsV(op, vals)
}

// EvalGateVals evaluates the single combinational gate id from
// positional, already-gathered fanin values — the entry point for
// overlay-valued evaluators (slicing's event-driven faulty machine)
// that cannot expose a flat value array.
func (c *Compiled) EvalGateVals(id int, vals []logic.V) logic.V {
	return c.evalOpValsV(c.code[id], vals)
}

// NewValueScratch allocates the gather buffer EvalGateVals callers and
// the scalar fault passes use for positional fanin values.
func (c *Compiled) NewValueScratch() []logic.V { return make([]logic.V, c.maxFanin) }

// RunDualWithFault performs the good/faulty scalar implication pass of
// PODEM: one schedule walk evaluating the good machine into gv and the
// faulty machine into fv with the stuck-at fault applied (an output
// fault forces the site's fv, a pin fault forces only that pin's
// observed value). Both value arrays must have their primary-input
// slots loaded; Input/DFF site faults force fv up front.
func (c *Compiled) RunDualWithFault(gv, fv, scratch []logic.V, f FaultSite) {
	fg := int32(f.Gate)
	if f.Pin < 0 && c.code[fg] == opHold {
		fv[fg] = f.SA
	}
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		fan := fanin[off[id]:off[id+1]]
		gv[id] = evalOpV(c.code[id], fan, gv)
		if id == fg {
			fv[id] = c.evalOpFaultedV(c.code[id], fan, fv, scratch, f)
		} else {
			fv[id] = evalOpV(c.code[id], fan, fv)
		}
	}
}

// EvalDualWithFault evaluates the single combinational gate id in both
// machines of RunDualWithFault, with the same fault handling, and
// returns its good and faulty values without storing them. It is the
// gate step of PODEM's event-driven implication, which re-evaluates
// only the fanout of the inputs that changed.
func (c *Compiled) EvalDualWithFault(id int32, gv, fv, scratch []logic.V, f FaultSite) (good, faulty logic.V) {
	op, fan := c.code[id], c.fanin[c.faninOff[id]:c.faninOff[id+1]]
	good = evalOpV(op, fan, gv)
	if id == int32(f.Gate) {
		return good, c.evalOpFaultedV(op, fan, fv, scratch, f)
	}
	return good, evalOpV(op, fan, fv)
}

// Fanin returns gate id's fanin gate IDs in pin order, as a read-only
// view of the compiled fanin arena.
func (c *Compiled) Fanin(id int) []int32 { return c.fanin[c.faninOff[id]:c.faninOff[id+1]] }

// Fanout returns the gates reading gate id, one entry per reading pin
// in netlist.Gate.Fanout order, as a read-only view of the compiled
// fanout arena. Event-driven passes (PODEM implication, slicing's
// faulty overlay) queue readers in this order.
func (c *Compiled) Fanout(id int) []int32 { return c.fanout[c.fanoutOff[id]:c.fanoutOff[id+1]] }

// Run performs one fault-free full combinational pass over the machine
// state in words (indexed by gate ID; inputs and DFF slots are consumed
// as-is, every scheduled gate is recomputed).
func (c *Compiled) Run(words []logic.Word) {
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		words[id] = evalOpW(c.code[id], fanin[off[id]:off[id+1]], words)
	}
}

// RunWithFault performs a full pass with a stuck-at fault injected, with
// RunWithFault's classic semantics: an output fault forces the site's
// word to the stuck value for the masked slots; an input-pin fault makes
// only the faulty gate observe the forced value on that pin. scratch
// must hold at least maxFanin words (use newScratch).
func (c *Compiled) RunWithFault(words, scratch []logic.Word, f FaultSite, mask uint64) {
	forced := logic.WordAll(f.SA)
	fg := int32(f.Gate)
	if f.Pin < 0 && c.code[fg] == opHold {
		words[fg] = mergeMask(words[fg], forced, mask)
	}
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		var w logic.Word
		if id == fg && f.Pin >= 0 {
			// A pin fault must only affect this one pin even when the
			// same driver feeds several pins of this gate.
			fan := fanin[off[id]:off[id+1]]
			vals := scratch[:len(fan)]
			for i, fi := range fan {
				vals[i] = words[fi]
			}
			vals[f.Pin] = mergeMask(vals[f.Pin], forced, mask)
			w = c.evalOpVals(c.code[id], vals)
		} else {
			w = evalOpW(c.code[id], fanin[off[id]:off[id+1]], words)
		}
		if id == fg && f.Pin < 0 {
			w = mergeMask(w, forced, mask)
		}
		words[id] = w
	}
}

// RunConeAligned is the hot-path cone pass: it requires the alignment
// invariant — words[i] == good[i] for every gate outside the cone (e.g.
// established by one AlignTo per good pass) — evaluates the cone's gates
// in place with plain indexed reads, folds the difference mask over the
// cone's reachable primary outputs, and then restores the cone gates'
// words from good, re-establishing the invariant for the next call. It
// returns the diff mask (over all 64 slots; callers apply their block
// mask) and the exact number of gates evaluated.
func (c *Compiled) RunConeAligned(words, good, scratch []logic.Word, cone *netlist.Cone, f FaultSite, mask uint64) (diff uint64, evals int) {
	evals = c.runConeEval(words, good, scratch, cone, f, mask)
	for _, oi := range cone.Outputs {
		oid := c.outputs[oi]
		diff |= logic.DiffW(good[oid], words[oid])
	}
	for _, id := range cone.Order {
		words[id] = good[id]
	}
	return diff, evals
}

// runConeEval is the cone evaluation loop of RunConeAligned. It assumes
// every out-of-cone word a cone gate reads already equals its
// good-machine value.
//
// In every standard use the fault site is the cone's root (the cone was
// grown from it), so the fault is applied once while evaluating the
// root and the rest of the cone runs as a plain pass with no per-gate
// fault tests. A fault site elsewhere (a foreign cone) falls back to
// the general checking loop.
func (c *Compiled) runConeEval(words, good, scratch []logic.Word, cone *netlist.Cone, f FaultSite, mask uint64) int {
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
			w := good[id]
			if f.Pin < 0 {
				w = mergeMask(w, forced, mask)
			}
			words[id] = w
		} else {
			var w logic.Word
			if f.Pin >= 0 {
				// A pin fault must only affect this one pin even when
				// the same driver feeds several pins of this gate.
				fan := fanin[off[id]:off[id+1]]
				vals := scratch[:len(fan)]
				for i, fi := range fan {
					vals[i] = words[fi]
				}
				vals[f.Pin] = mergeMask(vals[f.Pin], forced, mask)
				w = c.evalOpVals(op, vals)
			} else {
				w = mergeMask(evalOpW(op, fanin[off[id]:off[id+1]], words), forced, mask)
			}
			words[id] = w
			evals++
		}
		// Strict combinational successors of the root: never opHold,
		// never the fault site — the maximally lean inner loop.
		for _, oid := range order[1:] {
			id := int32(oid)
			words[id] = evalOpW(c.code[id], fanin[off[id]:off[id+1]], words)
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
			w := good[id]
			if id == fg && f.Pin < 0 {
				w = mergeMask(w, forced, mask)
			}
			words[id] = w
			continue
		}
		var w logic.Word
		if id == fg && f.Pin >= 0 {
			fan := fanin[off[id]:off[id+1]]
			vals := scratch[:len(fan)]
			for i, fi := range fan {
				vals[i] = words[fi]
			}
			vals[f.Pin] = mergeMask(vals[f.Pin], forced, mask)
			w = c.evalOpVals(op, vals)
		} else {
			w = evalOpW(op, fanin[off[id]:off[id+1]], words)
		}
		if id == fg && f.Pin < 0 {
			w = mergeMask(w, forced, mask)
		}
		words[id] = w
		evals++
	}
	return evals
}
