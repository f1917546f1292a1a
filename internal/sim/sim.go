// Package sim implements gate-level logic simulation over netlists on
// one compiled machine: the 64-pattern packed word simulator (Packed)
// that PODEM implication, the time-frame engine and fault simulation
// run on, its 256-pattern wide form (PackedBlock), and the four-valued
// Evaluator, a one-slot view of a Packed for vector-at-a-time callers.
// DFF semantics are synchronous: a Step evaluates the combinational
// logic, then latches all D pins simultaneously.
package sim

import (
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// Evaluator is a four-valued simulator of one vector at a time: a
// one-slot view of a Packed over the netlist's shared Compiled machine,
// whose words compute 0/1/X exactly as logic.V does. Every value is
// written to all 64 slots and read from slot 0. A word has no Z plane,
// so a Z written to an input or flip-flop reads back as X, which is how
// every gate already reads it.
type Evaluator struct {
	N *netlist.Netlist
	p *Packed
}

// New constructs an Evaluator. All values start at X.
func New(n *netlist.Netlist) (*Evaluator, error) {
	p, err := NewPacked(n)
	if err != nil {
		return nil, err
	}
	return &Evaluator{N: n, p: p}, nil
}

// Value returns the current value of the gate with the given ID.
func (e *Evaluator) Value(id int) logic.V { return e.p.Word(id).Get(0) }

// SetInputs assigns all primary inputs from a vector. Short vectors leave
// the remaining inputs untouched.
func (e *Evaluator) SetInputs(vec logic.Vector) {
	for i, v := range vec {
		if i >= len(e.N.Inputs) {
			break
		}
		e.p.SetWord(int32(e.N.Inputs[i]), logic.WordAll(v))
	}
}

// SetState assigns the idx-th flip-flop's present state (Q value).
func (e *Evaluator) SetState(idx int, v logic.V) { e.p.SetStateWord(idx, logic.WordAll(v)) }

// ResetState sets every flip-flop to the given value.
func (e *Evaluator) ResetState(v logic.V) {
	for i := range e.N.DFFs {
		e.SetState(i, v)
	}
}

// State returns the present values of all flip-flops.
func (e *Evaluator) State() logic.Vector {
	out := make(logic.Vector, len(e.N.DFFs))
	for i, id := range e.N.DFFs {
		out[i] = e.Value(id)
	}
	return out
}

// Run performs one full combinational pass in topological order on the
// compiled machine. Inputs and DFF states are consumed as-is; every
// other gate is recomputed.
func (e *Evaluator) Run() { e.p.Run() }

// Outputs returns the current primary output values.
func (e *Evaluator) Outputs() logic.Vector { return e.p.OutputVector(0) }

// Eval runs one combinational pass for the given input vector and returns
// the primary outputs. Flip-flop states are left untouched.
func (e *Evaluator) Eval(inputs logic.Vector) logic.Vector {
	e.SetInputs(inputs)
	e.Run()
	return e.Outputs()
}

// Step applies one synchronous clock cycle: evaluate combinational logic
// with the given inputs, sample every DFF's D pin, then update all DFFs
// simultaneously. It returns the primary outputs observed before the
// state update (Mealy-style observation).
func (e *Evaluator) Step(inputs logic.Vector) logic.Vector {
	e.SetInputs(inputs)
	e.Run()
	out := e.Outputs()
	next := make([]logic.Word, len(e.N.DFFs))
	for i, id := range e.N.DFFs {
		next[i] = e.p.Word(e.N.Gate(id).Fanin[0])
	}
	for i, w := range next {
		e.p.SetStateWord(i, w)
	}
	return out
}
