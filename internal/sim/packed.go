package sim

import (
	"fmt"

	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// Packed is a 64-way parallel-pattern simulator: every gate holds a
// logic.Word carrying 64 independent slots. It is the workhorse of
// fault simulation, and PODEM implication, the time-frame engine and
// the Evaluator run on it too, since a slot computes 0/1/X exactly as a
// scalar logic.V does.
//
// A Packed is a thin view over the netlist's shared Compiled machine:
// it owns only its word-state array (and a small fanin gather buffer),
// while the structure — op array, fanin arena, evaluation schedule — is
// compiled once per netlist and shared by every simulator over it. The
// interpreted oracles it is pinned to live in oracle_test.go.
type Packed struct {
	N       *netlist.Netlist
	c       *Compiled
	words   []logic.Word
	scratch []logic.Word
}

// NewPacked constructs a packed simulator. All slots start at X. The
// compiled machine is obtained from the netlist's artifact cache, so
// repeated constructions over one netlist share a single compilation.
func NewPacked(n *netlist.Netlist) (*Packed, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.NewPacked(), nil
}

// Compiled returns the shared compiled machine this simulator executes.
func (p *Packed) Compiled() *Compiled { return p.c }

// SetStateWord assigns the idx-th flip-flop across all 64 slots.
func (p *Packed) SetStateWord(idx int, w logic.Word) {
	p.words[p.N.DFFs[idx]] = w
}

// LoadPatterns loads up to 64 input vectors into the pattern slots.
// Pattern k occupies slot k; unused slots are X, and so is every input
// past the end of a short vector.
func (p *Packed) LoadPatterns(patterns []logic.Vector) error {
	if len(patterns) > 64 {
		return fmt.Errorf("sim: at most 64 patterns per packed pass, got %d", len(patterns))
	}
	for i, id := range p.c.inputs {
		p.words[id] = inputWord(patterns, i)
	}
	return nil
}

// Word returns the packed value of a gate.
func (p *Packed) Word(id int) logic.Word { return p.words[id] }

// Run performs one fault-free full combinational pass over all 64 slots
// on the compiled machine: inputs and DFF slots are consumed as-is, and
// every scheduled gate is recomputed.
func (p *Packed) Run() {
	c, words := p.c, p.words
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		words[id] = evalOpW(c.code[id], fanin[off[id]:off[id+1]], words)
	}
}

// FaultSite describes a stuck-at site for RunWithFault: a gate and an
// optional input pin (Pin < 0 addresses the gate output).
type FaultSite struct {
	Gate int
	Pin  int // -1 = output, otherwise index into Fanin
	SA   logic.V
}

// RunWithFault performs a full pass with a stuck-at fault injected in
// every slot. An output fault forces the site's word to the stuck value
// (an Input/DFF site up front, since it is never recomputed); an
// input-pin fault makes only the faulty gate observe the forced value
// on that pin.
func (p *Packed) RunWithFault(f FaultSite) {
	c, words := p.c, p.words
	fg := int32(f.Gate)
	if f.Pin < 0 && c.code[fg] == opHold {
		words[fg] = logic.WordAll(f.SA)
	}
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		fan := fanin[off[id]:off[id+1]]
		if id == fg {
			words[id] = c.evalOpFaultedW(c.code[id], fan, words, p.scratch, f)
		} else {
			words[id] = evalOpW(c.code[id], fan, words)
		}
	}
}

// EvalGate evaluates the single combinational gate id over p's words
// and returns its word without storing it: the gate step of slicing's
// event-driven faulty machine, which holds its faulty words in p.
func (p *Packed) EvalGate(id int32) logic.Word {
	c := p.c
	return evalOpW(c.code[id], c.fanin[c.faninOff[id]:c.faninOff[id+1]], p.words)
}

// EvalGateFaulted evaluates the fault site's gate over p's words with
// the stuck-at applied in every slot, as RunWithFault applies it (an
// output fault yields the stuck value, a pin fault forces only that
// pin's observed value), and returns its word without storing it.
func (p *Packed) EvalGateFaulted(f FaultSite) logic.Word {
	c, id := p.c, f.Gate
	return c.evalOpFaultedW(c.code[id], c.fanin[c.faninOff[id]:c.faninOff[id+1]], p.words, p.scratch, f)
}

// SetWord stores w as gate id's word.
func (p *Packed) SetWord(id int32, w logic.Word) { p.words[id] = w }

// AlignTo copies the good machine's complete word state into p,
// establishing the alignment invariant RunConeWithAlarms and slicing's
// overlay rely on: p's words equal good's everywhere outside a faulty
// pass. One AlignTo per completed good pass amortises over every fault
// simulated against it. PODEM uses the same copy to restart its search
// machine from an all-X one.
func (p *Packed) AlignTo(good *Packed) { copy(p.words, good.words) }

// RunConeWithAlarms is the hot-path cone pass over an aligned machine.
// It requires the alignment invariant — p's words equal good's for every
// gate, established by one AlignTo per good pass and restored by every
// cone pass — so p must have been aligned to good since good's last Run.
// It faults the cone root in every slot, evaluates the rest of the cone
// in place with plain indexed reads, folds the difference mask over the
// cone's reachable primary outputs, and then restores the cone gates'
// words from good. The pass evaluates cone.Evals gates, and the cone
// must be grown from f.Gate.
//
// The netlist's last alarms primary outputs are alarms: a slot is set in
// diff only when a non-alarm output differs and no alarm output differs
// in it.
func (p *Packed) RunConeWithAlarms(good *Packed, cone *netlist.Cone, f FaultSite, alarms int) (diff uint64) {
	c, words, gw := p.c, p.words, good.words
	c.runConeEval(words, p.scratch, cone, f)
	firstAlarm := len(c.outputs) - alarms
	var alarm uint64
	for _, oi := range cone.Outputs {
		oid := c.outputs[oi]
		if oi < firstAlarm {
			diff |= logic.DiffW(gw[oid], words[oid])
		} else {
			alarm |= logic.DiffW(gw[oid], words[oid])
		}
	}
	for _, id := range cone.Order {
		words[id] = gw[id]
	}
	return diff &^ alarm
}

// OutputVector extracts the scalar outputs of pattern slot k.
func (p *Packed) OutputVector(k uint) logic.Vector {
	out := make(logic.Vector, len(p.N.Outputs))
	for i, id := range p.N.Outputs {
		out[i] = p.words[id].Get(k)
	}
	return out
}
