// Package sim implements gate-level logic simulation over netlists: a
// four-valued full-pass scalar simulator used by ATPG and sequential
// analysis, and a 64-pattern parallel packed simulator used by
// fault simulation. DFF semantics are synchronous: a Step evaluates the
// combinational logic, then latches all D pins simultaneously.
package sim

import (
	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// Evaluator is a scalar four-valued simulator. Like Packed, it is a
// thin view over the netlist's shared Compiled machine: it owns only
// its value array.
type Evaluator struct {
	N      *netlist.Netlist
	c      *Compiled
	values []logic.V
}

// New constructs an Evaluator. All values start at X.
func New(n *netlist.Netlist) (*Evaluator, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	vals := make([]logic.V, n.NumGates())
	for i := range vals {
		vals[i] = logic.X
	}
	return &Evaluator{N: n, c: c, values: vals}, nil
}

// Compiled returns the shared compiled machine this evaluator executes.
func (e *Evaluator) Compiled() *Compiled { return e.c }

// Value returns the current value of the gate with the given ID.
func (e *Evaluator) Value(id int) logic.V { return e.values[id] }

// SetInputs assigns all primary inputs from a vector. Short vectors leave
// the remaining inputs untouched.
func (e *Evaluator) SetInputs(vec logic.Vector) {
	for i, v := range vec {
		if i >= len(e.N.Inputs) {
			break
		}
		e.values[e.N.Inputs[i]] = v
	}
}

// SetState assigns the idx-th flip-flop's present state (Q value).
func (e *Evaluator) SetState(idx int, v logic.V) {
	e.values[e.N.DFFs[idx]] = v
}

// ResetState sets every flip-flop to the given value.
func (e *Evaluator) ResetState(v logic.V) {
	for _, id := range e.N.DFFs {
		e.values[id] = v
	}
}

// State returns the present values of all flip-flops.
func (e *Evaluator) State() logic.Vector {
	out := make(logic.Vector, len(e.N.DFFs))
	for i, id := range e.N.DFFs {
		out[i] = e.values[id]
	}
	return out
}

// Run performs one full combinational pass in topological order on the
// compiled machine. Inputs and DFF states are consumed as-is; every
// other gate is recomputed.
func (e *Evaluator) Run() { e.c.RunV(e.values) }

// Outputs returns the current primary output values.
func (e *Evaluator) Outputs() logic.Vector {
	out := make(logic.Vector, len(e.N.Outputs))
	for i, id := range e.N.Outputs {
		out[i] = e.values[id]
	}
	return out
}

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
	next := make([]logic.V, len(e.N.DFFs))
	for i, id := range e.N.DFFs {
		next[i] = e.values[e.N.Gate(id).Fanin[0]]
	}
	for i, id := range e.N.DFFs {
		e.values[id] = next[i]
	}
	return out
}
