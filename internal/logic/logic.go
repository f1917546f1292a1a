// Package logic implements the four-valued logic algebra (0, 1, X, Z) used
// throughout the RESCUE toolset for gate-level simulation, test generation
// and fault analysis.
//
// The value X models an unknown or uninitialised signal, Z a high-impedance
// (undriven) net. All gate operators follow the pessimistic IEEE-1164-style
// resolution: any operation whose result cannot be determined from the known
// operands yields X. Z behaves as X once it enters a gate input.
package logic

import "fmt"

// V is a four-valued logic value.
type V uint8

// The four logic values. The numeric order is stable and part of the
// package contract: serialised dumps rely on it.
const (
	Zero V = iota // logical 0
	One           // logical 1
	X             // unknown / uninitialised
	Z             // high impedance
)

// String returns "0", "1", "X" or "Z".
func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("V(%d)", uint8(v))
}

// Known reports whether v is a defined binary value (0 or 1).
func (v V) Known() bool { return v == Zero || v == One }

// Bool converts v to a Go bool. It reports ok=false when v is X or Z.
func (v V) Bool() (b, ok bool) {
	switch v {
	case Zero:
		return false, true
	case One:
		return true, true
	}
	return false, false
}

// FromBool converts a Go bool to a logic value.
func FromBool(b bool) V {
	if b {
		return One
	}
	return Zero
}

// Parse converts a rune to a logic value. Accepted runes are
// '0', '1', 'x', 'X', 'z' and 'Z'.
func Parse(r rune) (V, error) {
	switch r {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X':
		return X, nil
	case 'z', 'Z':
		return Z, nil
	}
	return X, fmt.Errorf("logic: invalid value %q", r)
}

// in normalises Z to X for gate-input purposes.
func in(v V) V {
	if v == Z {
		return X
	}
	return v
}

// Not returns the logical complement of v.
func Not(v V) V {
	switch in(v) {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// Buf returns v resolved as a buffer output (Z becomes X).
func Buf(v V) V { return in(v) }

// And returns the conjunction of a and b. A controlling 0 dominates X.
func And(a, b V) V {
	a, b = in(a), in(b)
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or returns the disjunction of a and b. A controlling 1 dominates X.
func Or(a, b V) V {
	a, b = in(a), in(b)
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor returns the exclusive-or of a and b; X if either operand is unknown.
func Xor(a, b V) V {
	a, b = in(a), in(b)
	if !a.Known() || !b.Known() {
		return X
	}
	if a != b {
		return One
	}
	return Zero
}

// Nand returns Not(And(a, b)).
func Nand(a, b V) V { return Not(And(a, b)) }

// Nor returns Not(Or(a, b)).
func Nor(a, b V) V { return Not(Or(a, b)) }

// Xnor returns Not(Xor(a, b)).
func Xnor(a, b V) V { return Not(Xor(a, b)) }

// Mux returns d0 when sel=0 and d1 when sel=1. When sel is unknown the
// result is the consensus of d0 and d1 if they agree, X otherwise.
func Mux(sel, d0, d1 V) V {
	switch in(sel) {
	case Zero:
		return in(d0)
	case One:
		return in(d1)
	}
	a, b := in(d0), in(d1)
	if a == b && a.Known() {
		return a
	}
	return X
}

// AndN folds And over vs. An empty argument list yields One (the identity).
func AndN(vs ...V) V {
	r := One
	for _, v := range vs {
		r = And(r, v)
	}
	return r
}

// OrN folds Or over vs. An empty argument list yields Zero (the identity).
func OrN(vs ...V) V {
	r := Zero
	for _, v := range vs {
		r = Or(r, v)
	}
	return r
}

// XorN folds Xor over vs. An empty argument list yields Zero (the identity).
func XorN(vs ...V) V {
	r := Zero
	for _, v := range vs {
		r = Xor(r, v)
	}
	return r
}

// Vector is a sequence of logic values, e.g. a test pattern.
type Vector []V

// String renders the vector as a compact string such as "01X1".
func (vec Vector) String() string {
	buf := make([]byte, len(vec))
	for i, v := range vec {
		buf[i] = v.String()[0]
	}
	return string(buf)
}

// ParseVector converts a string such as "01X1" into a Vector.
func ParseVector(s string) (Vector, error) {
	vec := make(Vector, 0, len(s))
	for _, r := range s {
		v, err := Parse(r)
		if err != nil {
			return nil, err
		}
		vec = append(vec, v)
	}
	return vec, nil
}

// Clone returns a deep copy of the vector.
func (vec Vector) Clone() Vector {
	out := make(Vector, len(vec))
	copy(out, vec)
	return out
}

// FullyKnown reports whether every element of the vector is 0 or 1.
func (vec Vector) FullyKnown() bool {
	for _, v := range vec {
		if !v.Known() {
			return false
		}
	}
	return true
}

// Uint64 packs the first 64 elements of a fully known vector into an
// integer, element 0 in bit 0. Unknown values are treated as 0.
func (vec Vector) Uint64() uint64 {
	var u uint64
	for i, v := range vec {
		if i == 64 {
			break
		}
		if v == One {
			u |= 1 << uint(i)
		}
	}
	return u
}

// FromUint64 unpacks n bits of u into a Vector, bit 0 first.
func FromUint64(u uint64, n int) Vector {
	vec := make(Vector, n)
	for i := 0; i < n; i++ {
		if u&(1<<uint(i)) != 0 {
			vec[i] = One
		}
	}
	return vec
}

// Word is a 64-pattern packed two-plane logic word used by the
// parallel-pattern simulator. Bit i of the planes encodes pattern i:
//
//	V0=1, V1=0 -> 0
//	V0=0, V1=1 -> 1
//	V0=0, V1=0 -> X
//
// The encoding V0=1,V1=1 is unused and never produced.
type Word struct {
	V0 uint64 // bit set where the value is 0
	V1 uint64 // bit set where the value is 1
}

// WordAll returns a Word holding the same value in all 64 pattern slots.
func WordAll(v V) Word {
	switch in(v) {
	case Zero:
		return Word{V0: ^uint64(0)}
	case One:
		return Word{V1: ^uint64(0)}
	}
	return Word{}
}

// Get extracts the value of pattern slot i. It is branch-free, because
// simulated values are close to random and defeat branch prediction:
// X - (2*zero + one) is Zero, One or X, where one and zero are the
// slot's V1 and V0 bits and V1 wins in the unused V0=V1=1 encoding.
func (w Word) Get(i uint) V {
	one := w.V1 >> i & 1
	zero := w.V0 >> i & 1 &^ one
	return X - V(zero<<1|one)
}

// Set stores v into pattern slot i and returns the updated word.
func (w Word) Set(i uint, v V) Word {
	mask := uint64(1) << i
	w.V0 &^= mask
	w.V1 &^= mask
	switch in(v) {
	case Zero:
		w.V0 |= mask
	case One:
		w.V1 |= mask
	}
	return w
}

// NotW complements all 64 slots.
func NotW(a Word) Word { return Word{V0: a.V1, V1: a.V0} }

// AndW computes slot-wise And.
func AndW(a, b Word) Word {
	return Word{V0: a.V0 | b.V0, V1: a.V1 & b.V1}
}

// OrW computes slot-wise Or.
func OrW(a, b Word) Word {
	return Word{V0: a.V0 & b.V0, V1: a.V1 | b.V1}
}

// XorW computes slot-wise Xor; slots with any X operand yield X.
func XorW(a, b Word) Word {
	known := (a.V0 | a.V1) & (b.V0 | b.V1)
	ones := (a.V0 & b.V1) | (a.V1 & b.V0)
	return Word{V0: known &^ ones, V1: known & ones}
}

// MuxW computes slot-wise Mux(sel, d0, d1) with consensus on unknown select.
func MuxW(sel, d0, d1 Word) Word {
	take0 := sel.V0
	take1 := sel.V1
	selX := ^(sel.V0 | sel.V1)
	agree0 := d0.V0 & d1.V0
	agree1 := d0.V1 & d1.V1
	return Word{
		V0: (take0 & d0.V0) | (take1 & d1.V0) | (selX & agree0),
		V1: (take0 & d0.V1) | (take1 & d1.V1) | (selX & agree1),
	}
}

// DiffW returns a mask of slots where a and b hold different known values.
func DiffW(a, b Word) uint64 {
	return (a.V0 & b.V1) | (a.V1 & b.V0)
}
