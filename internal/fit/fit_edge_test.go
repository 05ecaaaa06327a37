package fit

// Edge-case coverage for the statistical helpers: empty, single-element,
// and NaN-bearing inputs. Profiles can legitimately produce NaN metrics
// (0/0 rate divisions downstream); the merge and dispersion helpers must
// yield defined values instead of propagating NaN into detection.

import (
	"math"
	"testing"
)

var nan = math.NaN()

func TestMergeEmptyAndSingle(t *testing.T) {
	if got := Merge(nil); got != 0 {
		t.Errorf("Merge(nil) = %g, want 0", got)
	}
	if got := Merge([]float64{3.5}); got != 3.5 {
		t.Errorf("Merge([3.5]) = %g, want 3.5", got)
	}
}

func TestMergeIgnoresNaN(t *testing.T) {
	vals := []float64{1, nan, 3}
	if got := Merge(vals); got != 2 {
		t.Errorf("Merge([1 NaN 3]) = %g, want 2", got)
	}
	if got := Merge([]float64{nan, nan}); got != 0 {
		t.Errorf("Merge(all-NaN) = %g, want 0", got)
	}
	// The input slice must not be mutated by the NaN filtering.
	if !math.IsNaN(vals[1]) {
		t.Error("Merge mutated its input")
	}
}

func TestVarianceEdges(t *testing.T) {
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %g, want 0", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance([7]) = %g, want 0", got)
	}
	if got := Variance([]float64{nan, nan, nan}); got != 0 {
		t.Errorf("Variance(all-NaN) = %g, want 0", got)
	}
	// NaN entries are dropped, not propagated: variance of {2, 4} is 1.
	if got := Variance([]float64{2, nan, 4}); got != 1 {
		t.Errorf("Variance([2 NaN 4]) = %g, want 1", got)
	}
	if got := Stddev([]float64{2, nan, 4}); got != 1 {
		t.Errorf("Stddev([2 NaN 4]) = %g, want 1", got)
	}
	if got := Variance([]float64{5, nan}); got != 0 {
		t.Errorf("Variance([5 NaN]) = %g, want 0 (one finite sample)", got)
	}
}

func TestFitLogLogRejectsNaN(t *testing.T) {
	if _, err := FitLogLog([]float64{4, 8}, []float64{1, nan}); err == nil {
		t.Error("FitLogLog accepted a NaN sample")
	}
	if _, err := FitLogLog([]float64{nan, 8}, []float64{1, 2}); err == nil {
		t.Error("FitLogLog accepted a NaN scale")
	}
	// Zero samples are still clamped, not rejected: vanishing vertices
	// must not poison the fit.
	m, err := FitLogLog([]float64{4, 8}, []float64{1, 0})
	if err != nil {
		t.Fatalf("FitLogLog with a zero sample: %v", err)
	}
	if math.IsNaN(m.B) {
		t.Error("zero sample produced a NaN slope")
	}
}
