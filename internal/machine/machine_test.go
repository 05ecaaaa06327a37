package machine

import (
	"testing"
	"testing/quick"
)

// compute runs one kernel and returns its time and counter deltas.
func compute(c *Core, flops, loads, stores, ws float64) (float64, Vec) {
	var d Vec
	dt := c.Compute(flops, loads, stores, ws, &d)
	return dt, d
}

func TestComputeBasics(t *testing.T) {
	c := NewCore(DefaultConfig(), 0)
	dt, d := compute(c, 1e6, 1e5, 5e4, 1024)
	if dt <= 0 {
		t.Fatalf("elapsed = %g, want > 0", dt)
	}
	if d[TotIns] < 1e6+1.5e5 {
		t.Errorf("TOT_INS = %g, want >= flops+mem", d[TotIns])
	}
	if d[TotLstIns] != 1.5e5 {
		t.Errorf("TOT_LST_INS = %g, want 1.5e5", d[TotLstIns])
	}
	if d[FpOps] != 1e6 {
		t.Errorf("FP_OPS = %g", d[FpOps])
	}
	if dt2, d2 := compute(c, 1e6, 1e5, 5e4, 1024); dt2 != dt || d2 != d {
		t.Errorf("a core holds no state: second call gave %g %v, first %g %v", dt2, d2, dt, d)
	}
}

func TestComputeFlopsScaling(t *testing.T) {
	c := NewCore(DefaultConfig(), 0)
	t1, _ := compute(c, 1e7, 0, 0, 64)
	t2, _ := compute(c, 1e8, 0, 0, 64)
	ratio := t2 / t1
	if ratio < 9.5 || ratio > 10.5 {
		t.Errorf("10x flops gave %gx time", ratio)
	}
}

func TestCacheModelMonotonicInWorkingSet(t *testing.T) {
	cfg := DefaultConfig()
	prev := 0.0
	for _, ws := range []float64{1 << 10, 64 << 10, 512 << 10, 4 << 20, 64 << 20} {
		c := NewCore(cfg, 0)
		dt, _ := compute(c, 1e5, 1e6, 0, ws) // memory-dominated
		if dt < prev {
			t.Errorf("time decreased when working set grew to %g: %g < %g", ws, dt, prev)
		}
		prev = dt
	}
}

func TestCacheMissesIncreaseWithWorkingSet(t *testing.T) {
	cSmall := NewCore(DefaultConfig(), 0)
	_, dSmall := compute(cSmall, 1e5, 1e6, 0, 8<<10)
	cBig := NewCore(DefaultConfig(), 0)
	_, dBig := compute(cBig, 1e5, 1e6, 0, 32<<20)
	if dSmall[L2Miss] >= dBig[L2Miss] {
		t.Errorf("L2 misses: small ws %g >= big ws %g", dSmall[L2Miss], dBig[L2Miss])
	}
	if dSmall[L2Miss] != 0 {
		t.Errorf("fully cache-resident working set should have 0 misses, got %g", dSmall[L2Miss])
	}
}

func TestHeterogeneousMemorySpeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemSpeed = func(rank int) float64 {
		if rank == 1 {
			return 2.0
		}
		return 1.0
	}
	fast := NewCore(cfg, 0)
	slow := NewCore(cfg, 1)
	// Memory-bound kernel: the slow-memory core must take longer while
	// executing the identical instruction stream (the Nekbone signature).
	tf, df := compute(fast, 1e5, 2e6, 1e6, 32<<20)
	ts, ds := compute(slow, 1e5, 2e6, 1e6, 32<<20)
	if ts <= tf {
		t.Errorf("slow-memory core not slower: %g <= %g", ts, tf)
	}
	if df[TotLstIns] != ds[TotLstIns] {
		t.Errorf("TOT_LST_INS must be equal: %g vs %g", df[TotLstIns], ds[TotLstIns])
	}
	if ds[TotCyc] <= df[TotCyc] {
		t.Errorf("TOT_CYC must be higher on slow core: %g <= %g", ds[TotCyc], df[TotCyc])
	}
	// Compute-bound kernel: memory speed must not matter.
	tf2, _ := compute(fast, 1e7, 100, 0, 1024)
	ts2, _ := compute(slow, 1e7, 100, 0, 1024)
	if tf2 != ts2 {
		t.Errorf("compute-bound kernel affected by memory speed: %g vs %g", tf2, ts2)
	}
}

func TestMemSpeedZeroOrNegativeClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemSpeed = func(rank int) float64 { return -1 }
	c := NewCore(cfg, 0)
	if c.MemFactor() != 1.0 {
		t.Errorf("negative mem factor should clamp to 1.0, got %g", c.MemFactor())
	}
}

func TestOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cycles, dt := cfg.Overhead(1000)
	if cycles != 1000/cfg.IPC || dt != cycles/cfg.ClockHz {
		t.Errorf("overhead: cycles=%g dt=%g, want 1000 instructions at IPC %g and %g Hz", cycles, dt, cfg.IPC, cfg.ClockHz)
	}
}

func TestComputePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative flops")
		}
	}()
	compute(NewCore(DefaultConfig(), 0), -1, 0, 0, 0)
}

func TestVecAddScale(t *testing.T) {
	a := Vec{1, 2, 3, 4, 5}
	a.Add(Vec{10, 20, 30, 40, 50})
	if a != (Vec{11, 22, 33, 44, 55}) {
		t.Errorf("Add = %v", a)
	}
	if got := a.Scale(2); got != (Vec{22, 44, 66, 88, 110}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestCounterNames(t *testing.T) {
	if TotIns.String() != "TOT_INS" || TotCyc.String() != "TOT_CYC" ||
		TotLstIns.String() != "TOT_LST_INS" || L2Miss.String() != "L2_MISS" || FpOps.String() != "FP_OPS" {
		t.Error("counter names wrong")
	}
	if Counter(42).String() == "" {
		t.Error("unknown counter should still render")
	}
}

// Property: for any non-negative operands, time and counters are finite,
// non-negative, and instructions cover at least the requested operations.
func TestComputePropertyNonNegative(t *testing.T) {
	c := NewCore(DefaultConfig(), 0)
	f := func(flops, loads, stores, ws uint32) bool {
		fl, ld, st, w := float64(flops), float64(loads), float64(stores), float64(ws)
		dt, d := compute(c, fl, ld, st, w)
		if dt < 0 {
			return false
		}
		if d[TotIns] < fl+ld+st {
			return false
		}
		for _, x := range d {
			if x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: time is monotone in each operand.
func TestComputePropertyMonotone(t *testing.T) {
	cfg := DefaultConfig()
	f := func(base uint16, extra uint16) bool {
		b, e := float64(base)+1, float64(extra)
		c1 := NewCore(cfg, 0)
		c2 := NewCore(cfg, 0)
		t1, _ := compute(c1, b, b, b, 4096)
		t2, _ := compute(c2, b+e, b+e, b+e, 4096)
		return t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
