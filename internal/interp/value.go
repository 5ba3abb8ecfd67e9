// Package interp executes IR programs.
//
// The interpreter serves three roles in the reproduction:
//
//  1. Native execution: it runs a program and counts executed native
//     operations, the baseline of the paper's slowdown measurements.
//  2. Ground-truth oracle: independently of any instrumentation, every
//     runtime value carries a definedness bit with exact MSan-style
//     propagation; uses of undefined values at critical operations are
//     recorded as oracle warnings. A sound detector must flag a superset
//     of nothing and a subset of nothing — i.e. exactly these sites.
//  3. Shadow execution: given an instrumentation plan (package
//     instrument), it additionally maintains shadow state and executes
//     the planned shadow propagations and checks, counting them; this is
//     the dynamic cost that Usher's static analysis reduces.
package interp

import (
	"fmt"

	"github.com/valueflow/usher/internal/ir"
)

// ValueKind discriminates runtime values.
type ValueKind uint8

// Value kinds. Undefined cells hold KindInt zero with Defined=false.
const (
	KindInt ValueKind = iota
	KindAddr
	KindFunc
)

// Instance is a runtime instantiation of an abstract object. A single
// abstract object (allocation site) may have many instances at run time —
// the gap that makes strong updates unsound in general and motivates the
// paper's semi-strong updates.
//
// A function value points at a code instance: one per function and run,
// holding the function and no cells, so that a Value needs a single
// reference field for both kinds of pointer.
type Instance struct {
	Obj   *ir.Object
	Cells []Cell
	Freed bool
	Seq   int // creation order, for diagnostics
	// shadow holds the instrumentation's per-cell shadow bits, allocated
	// lazily by the shadow machine.
	shadow []sbit
	// fn is the function of a code instance (nil for memory instances).
	fn *ir.Function
}

func (i *Instance) String() string {
	if i == nil {
		return "null"
	}
	return fmt.Sprintf("%s@%d", i.Obj, i.Seq)
}

// Cell is one memory cell: a concrete value plus its ground-truth
// definedness.
type Cell struct {
	Val     Value
	Defined bool
}

// Value is a runtime value: 24 bytes with one pointer, so register files
// and memory cells stay small and the garbage collector scans a single
// word per value.
//
//   - KindInt: Int is the integer; Inst is nil.
//   - KindAddr: Inst is the pointed-to instance (nil is the null pointer)
//     and Int the cell offset within it.
//   - KindFunc: Inst is the function's code instance; Int is 0.
type Value struct {
	Inst *Instance
	Int  int64
	Kind ValueKind
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// addrVal makes a pointer value.
func addrVal(inst *Instance, off int64) Value {
	return Value{Kind: KindAddr, Inst: inst, Int: off}
}

// isNull reports whether v is the null pointer.
func (v Value) isNull() bool { return v.Inst == nil }

// Truthy reports whether the value is nonzero in a condition.
func (v Value) Truthy() bool {
	if v.Kind == KindInt {
		return v.Int != 0
	}
	return v.Inst != nil
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindAddr:
		if v.isNull() {
			return "null"
		}
		return fmt.Sprintf("&%s+%d", v.Inst, v.Int)
	default:
		if v.Inst == nil {
			return "func(nil)"
		}
		return "@" + v.Inst.fn.Name
	}
}

// equal compares two values for the Eq/Ne operators.
func equal(a, b Value) bool {
	// Null pointers and integer zero compare equal (C null constants).
	norm := func(v Value) Value {
		if v.Kind == KindAddr && v.isNull() {
			return IntVal(0)
		}
		return v
	}
	a, b = norm(a), norm(b)
	// An integer has no instance and a function value a zero Int, so
	// struct equality covers all three kinds.
	return a == b
}
