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
	"scalana/internal/vm"
)

// Value is the VM's runtime value; the oracle shares the representation
// so prints and error texts compare byte for byte.
type Value = vm.Value

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
