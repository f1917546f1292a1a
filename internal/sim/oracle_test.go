package sim

import (
	"fmt"

	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// This file holds the interpreted differential oracles the compiled
// machine is pinned to: a pointer-chasing, closure-per-fanin evaluation
// of the netlist through one generic gate kernel shared by the scalar
// and packed algebras. The oracles trade speed for obviousness and live
// only in tests; the production engines are the closure-free compiled
// kernels of compiled.go and compiled_block.go.

// valueOps abstracts the logic algebra a simulator evaluates over: the
// scalar four-valued V or the 64-pattern packed Word.
type valueOps[T any] interface {
	Buf(T) T
	Not(T) T
	And(T, T) T
	Or(T, T) T
	Xor(T, T) T
	Mux(sel, d0, d1 T) T
}

// scalarOps is the four-valued scalar algebra.
type scalarOps struct{}

func (scalarOps) Buf(a logic.V) logic.V           { return logic.Buf(a) }
func (scalarOps) Not(a logic.V) logic.V           { return logic.Not(a) }
func (scalarOps) And(a, b logic.V) logic.V        { return logic.And(a, b) }
func (scalarOps) Or(a, b logic.V) logic.V         { return logic.Or(a, b) }
func (scalarOps) Xor(a, b logic.V) logic.V        { return logic.Xor(a, b) }
func (scalarOps) Mux(sel, d0, d1 logic.V) logic.V { return logic.Mux(sel, d0, d1) }

// wordOps is the 64-pattern packed algebra. A packed Buf is the identity:
// the Word encoding has no Z plane to normalise.
type wordOps struct{}

func (wordOps) Buf(a logic.Word) logic.Word           { return a }
func (wordOps) Not(a logic.Word) logic.Word           { return logic.NotW(a) }
func (wordOps) And(a, b logic.Word) logic.Word        { return logic.AndW(a, b) }
func (wordOps) Or(a, b logic.Word) logic.Word         { return logic.OrW(a, b) }
func (wordOps) Xor(a, b logic.Word) logic.Word        { return logic.XorW(a, b) }
func (wordOps) Mux(sel, d0, d1 logic.Word) logic.Word { return logic.MuxW(sel, d0, d1) }

// evalKernel computes one combinational gate output. val(i) supplies the
// value the gate observes on fanin pin i — the indirection through which
// the adapters implement true-value reads, pin-fault overrides and
// cone-restricted reads. Input and DFF are not combinational and panic:
// their values are held, never recomputed.
func evalKernel[T any, O valueOps[T]](ops O, t netlist.GateType, nfanin int, val func(int) T) T {
	switch t {
	case netlist.Buf:
		return ops.Buf(val(0))
	case netlist.Not:
		return ops.Not(val(0))
	case netlist.Mux:
		return ops.Mux(val(0), val(1), val(2))
	}
	acc := val(0)
	for i := 1; i < nfanin; i++ {
		v := val(i)
		switch t {
		case netlist.And, netlist.Nand:
			acc = ops.And(acc, v)
		case netlist.Or, netlist.Nor:
			acc = ops.Or(acc, v)
		case netlist.Xor, netlist.Xnor:
			acc = ops.Xor(acc, v)
		}
	}
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Xnor:
		acc = ops.Not(acc)
	case netlist.And, netlist.Or, netlist.Xor:
		// accumulated value is final
	default:
		panic(fmt.Sprintf("sim: unhandled gate type %v", t))
	}
	return acc
}

// EvalGate computes the output of gate g from the values provided by get.
func EvalGate(g *netlist.Gate, get func(int) logic.V) logic.V {
	if g.Type == netlist.Input || g.Type == netlist.DFF {
		return get(g.ID) // held values; not recomputed combinationally
	}
	return evalKernel(scalarOps{}, g.Type, len(g.Fanin), func(i int) logic.V {
		return get(g.Fanin[i])
	})
}

// EvalGateWithPin computes g's output where exactly the pin-th fanin sees
// pinVal and every other fanin sees its true value from get. The
// distinction matters when one driver feeds several pins of the same
// gate: only the faulted pin is overridden.
func EvalGateWithPin(g *netlist.Gate, get func(int) logic.V, pin int, pinVal logic.V) logic.V {
	return evalKernel(scalarOps{}, g.Type, len(g.Fanin), func(i int) logic.V {
		if i == pin {
			return pinVal
		}
		return get(g.Fanin[i])
	})
}

// evalGateW computes the packed output of gate g via get.
func evalGateW(g *netlist.Gate, get func(int) logic.Word) logic.Word {
	if g.Type == netlist.Input || g.Type == netlist.DFF {
		return get(g.ID)
	}
	return evalKernel(wordOps{}, g.Type, len(g.Fanin), func(i int) logic.Word {
		return get(g.Fanin[i])
	})
}

// evalGateWPin evaluates g where exactly the pin-th fanin sees pinVal and
// all other fanins see their true values (even if driven by the same net).
func evalGateWPin(g *netlist.Gate, getTrue func(int) logic.Word, pin int, pinVal logic.Word) logic.Word {
	return evalKernel(wordOps{}, g.Type, len(g.Fanin), func(i int) logic.Word {
		if i == pin {
			return pinVal
		}
		return getTrue(g.Fanin[i])
	})
}

// runInterpreted is the interpreted scalar full pass; results are
// bit-identical to Run.
func (e *Evaluator) runInterpreted() {
	get := func(id int) logic.V { return e.values[id] }
	for _, sid := range e.c.schedule {
		id := int(sid)
		e.values[id] = EvalGate(e.N.Gate(id), get)
	}
}

// runInterpreted is the interpreted packed full pass (also the baseline
// side of BenchmarkCompiled); results are bit-identical to Run.
func (p *Packed) runInterpreted() {
	get := func(id int) logic.Word { return p.words[id] }
	for _, sid := range p.c.schedule {
		id := int(sid)
		p.words[id] = evalGateW(p.N.Gate(id), get)
	}
}

// runWithFaultInterpreted is the interpreted oracle of RunWithFault.
func (p *Packed) runWithFaultInterpreted(f FaultSite, mask uint64) {
	forced := logic.WordAll(f.SA)
	get := func(id int) logic.Word { return p.words[id] }
	if f.Pin < 0 {
		if t := p.N.Gate(f.Gate).Type; t == netlist.Input || t == netlist.DFF {
			p.words[f.Gate] = mergeMask(p.words[f.Gate], forced, mask)
		}
	}
	for _, sid := range p.c.schedule {
		id := int(sid)
		g := p.N.Gate(id)
		var w logic.Word
		if id == f.Gate && f.Pin >= 0 {
			// A pin fault must only affect this one pin even when the
			// same driver feeds several pins of this gate.
			pinGate := g.Fanin[f.Pin]
			w = evalGateWPin(g, get, f.Pin, mergeMask(p.words[pinGate], forced, mask))
		} else {
			w = evalGateW(g, get)
		}
		if id == f.Gate && f.Pin < 0 {
			w = mergeMask(w, forced, mask)
		}
		p.words[id] = w
	}
}

// runConeWithFaultInterpreted is the interpreted oracle of the cone
// pass: only the cone's gates are evaluated into p, with out-of-cone
// fanins read from the good machine. It returns the number of gates
// evaluated.
func (p *Packed) runConeWithFaultInterpreted(good *Packed, cone *netlist.Cone, f FaultSite, mask uint64) int {
	forced := logic.WordAll(f.SA)
	get := func(id int) logic.Word {
		if cone.Contains(id) {
			return p.words[id]
		}
		return good.words[id]
	}
	evals := 0
	for _, id := range cone.Order {
		g := p.N.Gate(id)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			// Only the root can be a cone Input/DFF (nothing combinational
			// drives them), and only an output-site fault forces it.
			w := good.words[id]
			if id == f.Gate && f.Pin < 0 {
				w = mergeMask(w, forced, mask)
			}
			p.words[id] = w
			continue
		}
		var w logic.Word
		if id == f.Gate && f.Pin >= 0 {
			pinGate := g.Fanin[f.Pin]
			w = evalGateWPin(g, get, f.Pin, mergeMask(get(pinGate), forced, mask))
		} else {
			w = evalGateW(g, get)
		}
		if id == f.Gate && f.Pin < 0 {
			w = mergeMask(w, forced, mask)
		}
		p.words[id] = w
		evals++
	}
	return evals
}
