// Package interp is the tree-walking reference implementation of MiniMP:
// the semantic oracle the bytecode VM (internal/vm) is held to. Only
// tests link it — internal/vm/difftest, FuzzVMvsInterp, and this
// package's own both-engine semantic tests; nothing that ships imports
// it. Like the VM, it keeps the current PSG instance and vertex up to
// date on the simulated process (Proc.Ctx) as it runs, so tool hooks
// attribute time, PMU counters, and communication dependence to graph
// vertices the way call-stack unwinding attributes samples on real
// hardware.
package interp

import (
	"fmt"

	"scalana/internal/minilang"
)

// Value is a MiniMP runtime value: a number, a function reference, or an
// array. The zero Value is the number 0. The oracle owns this type — the
// VM packs the same three cases into one word (vm.Value) — so prints and
// error texts that compare byte for byte were produced by two
// representations, not one shared one.
type Value struct {
	Num float64
	Fn  string    // non-empty: function reference created by &name
	Arr []float64 // non-nil: array created by alloc(n)
}

// IsNum reports whether v is a plain number.
func (v Value) IsNum() bool { return v.Fn == "" && v.Arr == nil }

func (v Value) String() string {
	switch {
	case v.Fn != "":
		return "&" + v.Fn
	case v.Arr != nil:
		return fmt.Sprintf("array[%d]", len(v.Arr))
	default:
		return fmt.Sprintf("%g", v.Num)
	}
}

// num extracts a number, panicking with position context otherwise.
func num(v Value, pos minilang.Pos, what string) float64 {
	if !v.IsNum() {
		panic(fmt.Sprintf("%s: %s must be a number, got %s", pos, what, v))
	}
	return v.Num
}

func truthy(v Value, pos minilang.Pos) bool {
	return num(v, pos, "condition") != 0
}

func boolVal(b bool) Value {
	if b {
		return Value{Num: 1}
	}
	return Value{}
}
