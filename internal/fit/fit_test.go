package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLogLogExactPowerLaw(t *testing.T) {
	ps := []float64{4, 8, 16, 32, 64}
	for _, b := range []float64{-1, -0.5, 0, 0.7, 2} {
		ys := make([]float64, len(ps))
		for i, p := range ps {
			ys[i] = 3.7 * math.Pow(p, b)
		}
		m, err := FitLogLog(ps, ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.B-b) > 1e-9 {
			t.Errorf("slope = %g, want %g", m.B, b)
		}
		if m.R2 < 0.999999 {
			t.Errorf("R2 = %g for exact power law", m.R2)
		}
		if math.Abs(math.Exp(m.A)-3.7) > 1e-9 {
			t.Errorf("coefficient = %g, want 3.7", math.Exp(m.A))
		}
	}
}

func TestFitLogLogErrors(t *testing.T) {
	if _, err := FitLogLog([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLogLog([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLogLog([]float64{0, 2}, []float64{1, 1}); err == nil {
		t.Error("non-positive scale should error")
	}
	if _, err := FitLogLog([]float64{4, 4}, []float64{1, 2}); err == nil {
		t.Error("identical scales should error")
	}
}

func TestFitLogLogToleratesZeroSamples(t *testing.T) {
	// A vertex absent at one scale: zero time must not produce NaN.
	m, err := FitLogLog([]float64{4, 8, 16}, []float64{1.0, 0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.B) || math.IsInf(m.B, 0) {
		t.Errorf("slope = %g", m.B)
	}
}

func TestStats(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if Mean(vals) != 2.5 {
		t.Errorf("mean = %g", Mean(vals))
	}
	if Median(vals) != 2.5 {
		t.Errorf("median = %g", Median(vals))
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Errorf("odd median = %g", Median([]float64{5, 1, 3}))
	}
	if Max(vals) != 4 || Min(vals) != 1 {
		t.Errorf("max/min = %g/%g", Max(vals), Min(vals))
	}
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Errorf("variance of constant = %g", v)
	}
	if v := Variance([]float64{1, 3}); v != 1 {
		t.Errorf("variance = %g, want 1", v)
	}
	if s := Stddev([]float64{1, 3}); s != 1 {
		t.Errorf("stddev = %g, want 1", s)
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-input stats should be 0")
	}
}

func TestMergeStrategies(t *testing.T) {
	if got := Merge([]float64{1, 2, 3, 100}); got != 2.5 {
		t.Errorf("median merge = %g", got)
	}
}

// Property: the fitted slope of y = c*p^b recovers b for random c, b.
func TestFitLogLogProperty(t *testing.T) {
	f := func(cRaw, bRaw int16) bool {
		c := 0.1 + math.Abs(float64(cRaw))/1000
		b := float64(bRaw) / 8192 // in [-4, 4)
		ps := []float64{2, 4, 8, 16, 32, 64, 128}
		ys := make([]float64, len(ps))
		for i, p := range ps {
			ys[i] = c * math.Pow(p, b)
		}
		m, err := FitLogLog(ps, ys)
		if err != nil {
			return false
		}
		return math.Abs(m.B-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: Median lies between Min and Max; Variance is non-negative.
func TestStatsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		if len(vals) == 0 {
			return true
		}
		med := Median(vals)
		if med < Min(vals) || med > Max(vals) {
			return false
		}
		return Variance(vals) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
