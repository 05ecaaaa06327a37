// Package fit provides the statistical machinery behind ScalAna's
// problematic-vertex detection: log-log regression for non-scalable vertex
// detection (paper §IV-A cites Barnes et al.'s regression-based scalability
// prediction), the median merge of per-rank metrics, and basic
// descriptive statistics.
package fit

import (
	"fmt"
	"math"
	"sort"
)

// LogLog is a fitted power-law model y = exp(a) * p^b, obtained by least
// squares on (log p, log y).
type LogLog struct {
	A float64 // intercept in log space
	B float64 // slope: the "changing rate" used to rank vertices
	// R2 is the coefficient of determination of the fit in log space.
	R2 float64
}

// Eval evaluates the model at p.
func (m LogLog) Eval(p float64) float64 { return math.Exp(m.A) * math.Pow(p, m.B) }

func (m LogLog) String() string {
	return fmt.Sprintf("y = %.3g * p^%.3f (R2=%.3f)", math.Exp(m.A), m.B, m.R2)
}

// FitLogLog fits a log-log model to (ps, ys). Non-positive samples are
// clamped to a tiny epsilon so vertices that vanish at some scale do not
// poison the fit. It returns an error when fewer than two distinct scales
// are present. The sums accumulate in slice order, so callers whose output
// bytes depend on the coefficients (baseline's slopes) must pass points in
// one canonical order.
func FitLogLog(ps, ys []float64) (LogLog, error) {
	if len(ps) != len(ys) {
		return LogLog{}, fmt.Errorf("fit: length mismatch %d vs %d", len(ps), len(ys))
	}
	if len(ps) < 2 {
		return LogLog{}, fmt.Errorf("fit: need at least 2 points, got %d", len(ps))
	}
	const eps = 1e-12
	n := float64(len(ps))
	var sx, sy, sxx, sxy float64
	for i := range ps {
		if math.IsNaN(ps[i]) {
			return LogLog{}, fmt.Errorf("fit: NaN scale at index %d", i)
		}
		if ps[i] <= 0 {
			return LogLog{}, fmt.Errorf("fit: non-positive scale %g", ps[i])
		}
		if math.IsNaN(ys[i]) {
			return LogLog{}, fmt.Errorf("fit: NaN sample at scale %g", ps[i])
		}
		x := math.Log(ps[i])
		y := math.Log(math.Max(ys[i], eps))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LogLog{}, fmt.Errorf("fit: all scales identical")
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n

	// R² in log space.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range ps {
		x := math.Log(ps[i])
		y := math.Log(math.Max(ys[i], eps))
		pred := a + b*x
		ssTot += (y - meanY) * (y - meanY)
		ssRes += (y - pred) * (y - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LogLog{A: a, B: b, R2: r2}, nil
}

// MergeStrategy names the one cross-rank merge, MergeMedian. It stays
// only because callers of baseline.Ingest, IngestBytes and NewState still
// pass it; those functions ignore it.
type MergeStrategy int

// MergeMedian is the median merge that Merge computes.
const MergeMedian MergeStrategy = 0

// Merge reduces one vertex's per-rank values to one number per scale
// (paper §IV-A): their median. NaN entries are missing samples and are
// ignored; with no non-NaN entry at all the merge is a defined 0 rather
// than NaN.
func Merge(values []float64) float64 {
	return Median(dropNaN(values))
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Median returns the median (average of middle two for even length).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	cp := append([]float64(nil), values...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Variance returns the population variance, ignoring NaN entries
// (fewer than two non-NaN entries give 0 rather than NaN).
func Variance(values []float64) float64 {
	values = dropNaN(values)
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	var s float64
	for _, v := range values {
		s += (v - m) * (v - m)
	}
	return s / float64(len(values))
}

// dropNaN returns values without NaN entries, reusing the input slice
// when it is already clean.
func dropNaN(values []float64) []float64 {
	clean := true
	for _, v := range values {
		if math.IsNaN(v) {
			clean = false
			break
		}
	}
	if clean {
		return values
	}
	out := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Stddev returns the population standard deviation.
func Stddev(values []float64) float64 { return math.Sqrt(Variance(values)) }

// Max returns the maximum value (0 for empty input).
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mx := values[0]
	for _, v := range values[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Min returns the minimum value (0 for empty input).
func Min(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mn := values[0]
	for _, v := range values[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn
}
