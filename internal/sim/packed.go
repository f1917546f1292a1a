package sim

import (
	"fmt"

	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// Packed is a 64-way parallel-pattern simulator: every gate holds a
// logic.Word carrying 64 independent pattern slots. It is the workhorse
// of the fault-simulation engine.
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

// SetInputWord assigns the idx-th primary input across all 64 slots.
func (p *Packed) SetInputWord(idx int, w logic.Word) {
	p.words[p.N.Inputs[idx]] = w
}

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

// inputWord packs input i of up to 64 vectors into one word: pattern
// k's value sets bit k of the V0 plane for 0 and of the V1 plane for 1;
// X, Z and an input past a short vector's end set neither. The planes
// are shifted in from the last pattern down and computed without
// branches, because random patterns defeat branch prediction: for
// b = uint64(v), (b-1)>>63 is 1 exactly when v is Zero and
// ((b^1)-1)>>63 exactly when v is One.
func inputWord(patterns []logic.Vector, i int) logic.Word {
	var w logic.Word
	for k := len(patterns) - 1; k >= 0; k-- {
		var zero, one uint64
		if pat := patterns[k]; i < len(pat) {
			b := uint64(pat[i])
			zero, one = (b-1)>>63, ((b^1)-1)>>63
		}
		w.V0 = w.V0<<1 | zero
		w.V1 = w.V1<<1 | one
	}
	return w
}

// Word returns the packed value of a gate.
func (p *Packed) Word(id int) logic.Word { return p.words[id] }

// Run performs one full combinational pass over all 64 slots on the
// compiled machine.
func (p *Packed) Run() { p.c.Run(p.words) }

// FaultSite describes a stuck-at site for RunWithFault: a gate and an
// optional input pin (Pin < 0 addresses the gate output).
type FaultSite struct {
	Gate int
	Pin  int // -1 = output, otherwise index into Fanin
	SA   logic.V
}

// RunWithFault performs a full pass with a stuck-at fault injected. An
// output fault forces the gate's computed word to the stuck value; an
// input-pin fault makes only the faulty gate observe the forced value on
// that pin. The mask selects which pattern slots carry the fault (use
// ^uint64(0) for all).
func (p *Packed) RunWithFault(f FaultSite, mask uint64) {
	p.c.RunWithFault(p.words, p.scratch, f, mask)
}

// AlignTo copies the good machine's complete word state into p,
// establishing the alignment invariant RunConeAligned relies on: p's
// words equal good's everywhere outside a cone pass. One AlignTo per
// completed good pass amortises over every fault simulated against it.
func (p *Packed) AlignTo(good *Packed) { copy(p.words, good.words) }

// RunConeAligned is the hot-path cone pass over an aligned machine (see
// Compiled.RunConeAligned): it evaluates only the cone's gates with
// plain indexed reads, returns the output difference mask and the exact
// evaluation count, and restores the alignment invariant before
// returning. p must have been aligned to good since good's last Run.
func (p *Packed) RunConeAligned(good *Packed, cone *netlist.Cone, f FaultSite, mask uint64) (diff uint64, evals int) {
	return p.c.RunConeAligned(p.words, good.words, p.scratch, cone, f, mask)
}

// mergeMask returns base with the masked slots replaced by repl.
func mergeMask(base, repl logic.Word, mask uint64) logic.Word {
	return logic.Word{
		V0: (base.V0 &^ mask) | (repl.V0 & mask),
		V1: (base.V1 &^ mask) | (repl.V1 & mask),
	}
}

// OutputVector extracts the scalar outputs of pattern slot k.
func (p *Packed) OutputVector(k uint) logic.Vector {
	out := make(logic.Vector, len(p.N.Outputs))
	for i, id := range p.N.Outputs {
		out[i] = p.words[id].Get(k)
	}
	return out
}
