package vm

import (
	"math"
	"testing"
)

// TestBoxesAreDisjointFromHostNaNs: every NaN the hardware or the math
// package makes is a number (DESIGN.md §2 says why none can be a box), and
// the boxes keep what they were given.
func TestBoxesAreDisjointFromHostNaNs(t *testing.T) {
	zero, inf := 0.0, math.Inf(1) // variables, so the host computes
	nans := map[string]float64{
		"math.NaN()": math.NaN(), "sqrt(-1)": math.Sqrt(zero - 1), "log(-1)": math.Log(zero - 1),
		"0*inf": zero * inf, "inf-inf": inf - inf, "0/0": zero / zero, "-(0/0)": -(zero / zero),
		"mod(1,0)": math.Mod(1, zero), "pow(-1,.5)": math.Pow(zero-1, 0.5), "NaN+1": math.NaN() + 1,
		"arm64 default": math.Float64frombits(0x7FF8 << 48), "x86 default": math.Float64frombits(0xFFF8 << 48),
		"mips legacy": math.Float64frombits(0x7FF7FFFFFFFFFFFF),
	}
	for name, f := range nans {
		if v := Value(f); f == f || !v.IsNum() || v.isFn() || v.isArr() {
			t.Errorf("%s (%#x): NaN %v, IsNum %v, isFn %v, isArr %v; want a NaN that is a number", name, v.bits(), f != f, v.IsNum(), v.isFn(), v.isArr())
		}
	}
	for _, f := range []float64{0, -1, math.MaxFloat64, math.SmallestNonzeroFloat64, inf, -inf} {
		if !Value(f).IsNum() {
			t.Errorf("%g is not a number", f)
		}
	}
	for _, id := range []int32{0, 1, math.MaxInt32} {
		if v := fnRef(id); v.IsNum() || !v.isFn() || v.isArr() || v.fnID() != int(id) {
			t.Errorf("fnRef(%d) = %#x: IsNum %v, isFn %v, fnID %d", id, v.bits(), v.IsNum(), v.isFn(), v.fnID())
		}
	}
	m := &machine{heap: make([]float64, MaxArrayElems)}
	for _, a := range [][2]int{{0, 0}, {0, MaxArrayElems}, {MaxArrayElems, 0}, {MaxArrayElems - 7, 7}} {
		v := arrRef(a[0], a[1])
		if v.IsNum() || v.isFn() || !v.isArr() || v.arrLen() != a[1] || len(m.arr(v)) != a[1] {
			t.Errorf("arrRef(%d, %d) = %#x: IsNum %v, isArr %v, arrLen %d", a[0], a[1], v.bits(), v.IsNum(), v.isArr(), v.arrLen())
		}
		if a[1] > 0 && &m.arr(v)[0] != &m.heap[a[0]] {
			t.Errorf("arrRef(%d, %d) does not start at heap[%d]", a[0], a[1], a[0])
		}
	}
	// A forged array cannot reach past its own rank's heap: it panics there.
	defer func() {
		if recover() == nil {
			t.Error("an array box past the heap's end was served")
		}
	}()
	(&machine{heap: make([]float64, 4)}).arr(arrRef(2, 3))
}
