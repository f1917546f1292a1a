// Package fault defines the fault models used across the RESCUE toolset:
// permanent stuck-at faults on gate outputs and input pins, and transient
// single-event faults (SEU in flip-flops, SET in combinational nodes).
// It generates complete fault lists and performs classical structural
// equivalence collapsing to shrink them.
package fault

import (
	"fmt"

	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// Kind distinguishes fault classes.
type Kind uint8

const (
	// StuckAt is a permanent stuck-at-0/1 fault on a gate output or pin.
	StuckAt Kind = iota
	// SEU is a transient bit flip in a flip-flop (single-event upset).
	SEU
	// SET is a transient pulse on a combinational node that may be
	// latched (single-event transient).
	SET
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case StuckAt:
		return "stuck-at"
	case SEU:
		return "SEU"
	case SET:
		return "SET"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault is a single fault instance. For stuck-at faults, Pin < 0 places
// the fault on the gate output; Pin >= 0 on that input pin. Value is the
// stuck value for StuckAt faults; transient faults flip the good value
// and ignore Value.
type Fault struct {
	Kind  Kind
	Gate  int
	Pin   int
	Value logic.V
}

// String renders e.g. "G10/out s-a-1" or "G5 SEU".
func (f Fault) String() string {
	switch f.Kind {
	case StuckAt:
		loc := "out"
		if f.Pin >= 0 {
			loc = fmt.Sprintf("in%d", f.Pin)
		}
		return fmt.Sprintf("g%d/%s s-a-%s", f.Gate, loc, f.Value)
	case SEU:
		return fmt.Sprintf("g%d SEU", f.Gate)
	}
	return fmt.Sprintf("g%d SET", f.Gate)
}

// ValidateSite rejects a fault whose site lies outside the circuit: an
// unknown gate, or a stuck-at pin beyond the gate's fanin. Only a
// stuck-at addresses a pin; transients flip a gate's value. The error
// carries no package prefix; callers add their own.
func ValidateSite(n *netlist.Netlist, f Fault) error {
	if f.Gate < 0 || f.Gate >= n.NumGates() {
		return fmt.Errorf("fault references unknown gate id %d", f.Gate)
	}
	if f.Kind == StuckAt && f.Pin >= len(n.Gate(f.Gate).Fanin) {
		return fmt.Errorf("fault on gate %q pin %d out of range (fanin %d)",
			n.Gate(f.Gate).Name, f.Pin, len(n.Gate(f.Gate).Fanin))
	}
	return nil
}

// Describe renders the fault with gate names resolved from the netlist.
func (f Fault) Describe(n *netlist.Netlist) string {
	name := n.Gate(f.Gate).Name
	switch f.Kind {
	case StuckAt:
		loc := "out"
		if f.Pin >= 0 {
			loc = fmt.Sprintf("in%d(%s)", f.Pin, n.Gate(n.Gate(f.Gate).Fanin[f.Pin]).Name)
		}
		return fmt.Sprintf("%s/%s s-a-%s", name, loc, f.Value)
	case SEU:
		return name + " SEU"
	}
	return name + " SET"
}

// List is an ordered fault list.
type List []Fault

// AllStuckAt enumerates the complete uncollapsed single stuck-at fault
// list: both polarities on every gate output and on every gate input pin.
// Primary inputs contribute output faults only.
func AllStuckAt(n *netlist.Netlist) List {
	var list List
	for _, g := range n.Gates {
		for _, v := range []logic.V{logic.Zero, logic.One} {
			list = append(list, Fault{Kind: StuckAt, Gate: g.ID, Pin: -1, Value: v})
		}
		// Input-pin faults matter only where the driver has fanout > 1;
		// we enumerate all pins here and let Collapse remove equivalents.
		for pin := range g.Fanin {
			for _, v := range []logic.V{logic.Zero, logic.One} {
				list = append(list, Fault{Kind: StuckAt, Gate: g.ID, Pin: pin, Value: v})
			}
		}
	}
	return list
}

// AllSEU enumerates one SEU fault per flip-flop.
func AllSEU(n *netlist.Netlist) List {
	var list List
	for _, id := range n.DFFs {
		list = append(list, Fault{Kind: SEU, Gate: id, Pin: -1})
	}
	return list
}

// AllSET enumerates one SET fault per combinational gate output.
func AllSET(n *netlist.Netlist) List {
	var list List
	for _, g := range n.Gates {
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue
		}
		list = append(list, Fault{Kind: SET, Gate: g.ID, Pin: -1})
	}
	return list
}

// Collapse performs structural equivalence collapsing of a stuck-at fault
// list using the classical gate-local rules:
//
//   - AND:  any input s-a-0 ≡ output s-a-0; NAND: input s-a-0 ≡ output s-a-1
//   - OR:   any input s-a-1 ≡ output s-a-1; NOR:  input s-a-1 ≡ output s-a-0
//   - NOT/BUF/DFF: input faults ≡ (possibly inverted) output faults
//   - fanout-free nets: a pin fault on the only load of a net ≡ the
//     driver's output fault of the same polarity
//
// The returned list contains one representative per equivalence class.
// Collapse only applies to StuckAt faults; others pass through untouched.
func Collapse(n *netlist.Netlist, list List) List {
	type key struct {
		gate int
		pin  int
		v    logic.V
	}
	// Union-find over fault sites.
	parent := make(map[key]key)
	var find func(k key) key
	find = func(k key) key {
		p, ok := parent[k]
		if !ok || p == k {
			return k
		}
		r := find(p)
		parent[k] = r
		return r
	}
	union := func(a, b key) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	out := func(g int, v logic.V) key { return key{g, -1, v} }
	pin := func(g, p int, v logic.V) key { return key{g, p, v} }

	for _, g := range n.Gates {
		switch g.Type {
		case netlist.And, netlist.Nand:
			ov := logic.Zero
			if g.Type == netlist.Nand {
				ov = logic.One
			}
			for p := range g.Fanin {
				union(pin(g.ID, p, logic.Zero), out(g.ID, ov))
			}
		case netlist.Or, netlist.Nor:
			ov := logic.One
			if g.Type == netlist.Nor {
				ov = logic.Zero
			}
			for p := range g.Fanin {
				union(pin(g.ID, p, logic.One), out(g.ID, ov))
			}
		case netlist.Not:
			union(pin(g.ID, 0, logic.Zero), out(g.ID, logic.One))
			union(pin(g.ID, 0, logic.One), out(g.ID, logic.Zero))
		case netlist.Buf, netlist.DFF:
			union(pin(g.ID, 0, logic.Zero), out(g.ID, logic.Zero))
			union(pin(g.ID, 0, logic.One), out(g.ID, logic.One))
		}
	}
	// Fanout-free net rule: driver output fault ≡ pin fault at sole load.
	for _, g := range n.Gates {
		if len(g.Fanout) != 1 {
			continue
		}
		isOutput := false
		for _, o := range n.Outputs {
			if o == g.ID {
				isOutput = true
				break
			}
		}
		if isOutput {
			continue // output faults stay distinct: observed directly
		}
		load := n.Gate(g.Fanout[0])
		for p, f := range load.Fanin {
			if f == g.ID {
				union(out(g.ID, logic.Zero), pin(load.ID, p, logic.Zero))
				union(out(g.ID, logic.One), pin(load.ID, p, logic.One))
			}
		}
	}

	seen := make(map[key]bool)
	var collapsed List
	for _, f := range list {
		if f.Kind != StuckAt {
			collapsed = append(collapsed, f)
			continue
		}
		r := find(key{f.Gate, f.Pin, f.Value})
		if !seen[r] {
			seen[r] = true
			collapsed = append(collapsed, f)
		}
	}
	return collapsed
}

// Status classifies a fault after a campaign.
type Status uint8

const (
	Undetected   Status = iota // simulated, never observed
	Detected                   // observed at a primary output
	Untestable                 // proven to have no test
	Aborted                    // analysis gave up (backtrack limit)
	NotSimulated               // not yet simulated
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Undetected:
		return "undetected"
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	case NotSimulated:
		return "not-simulated"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Coverage summarises detection results over a fault list.
type Coverage struct {
	Total      int
	Detected   int
	Untestable int
	Aborted    int
}

// CoverageOf tallies a status list parallel to a fault list: every
// entry counts toward Total, and Detected, Untestable and Aborted
// entries toward their own counts.
func CoverageOf(status []Status) Coverage {
	c := Coverage{Total: len(status)}
	for _, s := range status {
		switch s {
		case Detected:
			c.Detected++
		case Untestable:
			c.Untestable++
		case Aborted:
			c.Aborted++
		}
	}
	return c
}

// Raw returns detected / total.
func (c Coverage) Raw() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Total)
}

// Effective returns detected / (total - untestable), the fault efficiency
// figure that Section III.A argues is the honest coverage number once
// functionally untestable faults are excluded.
func (c Coverage) Effective() float64 {
	den := c.Total - c.Untestable
	if den <= 0 {
		return 0
	}
	return float64(c.Detected) / float64(den)
}
