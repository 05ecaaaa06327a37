package baseline

import (
	"math"
	"testing"

	"scalana/internal/fit"
	"scalana/internal/psg"
)

// slopeState builds a five-vertex state whose runs follow
// value = (1+vid) * np^(0.2*vid) * (1 + 0.03*run); vertex 4 is absent
// (NaN) at np=4. runs[np] is the history length at that scale.
func slopeState(t *testing.T, runs map[int]int) *State {
	t.Helper()
	const nv = 5
	st := &State{app: "t", merge: fit.MergeMedian, keys: make([]string, nv), verts: make([]*psg.Vertex, nv), byNP: map[int][]Run{}}
	for np, n := range runs {
		for run := 0; run < n; run++ {
			values := make([]float64, nv)
			for vid := range values {
				values[vid] = float64(1+vid) * math.Pow(float64(np), 0.2*float64(vid)) * (1 + 0.03*float64(run))
			}
			if np == 4 {
				values[4] = math.NaN()
			}
			if err := st.Add(run, &Sample{NP: np, Hash: string(rune('a' + run)), Values: values}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestSlopes pins SlopeOld/SlopeNew to the bit. The expected patterns
// were recorded before slopes became two fit.FitLogLog calls, from the
// incremental accumulator it replaced, so they hold the report bytes
// across that change.
func TestSlopes(t *testing.T) {
	nan := math.Float64bits(math.NaN())
	for _, tc := range []struct {
		name     string
		runs     map[int]int
		watchNP  int
		old, new [5]uint64
	}{
		{
			name: "newest run opens a new largest scale",
			runs: map[int]int{4: 2, 8: 2, 16: 1}, watchNP: 16,
			old: [5]uint64{0x3c90a6a4c7c29fa2, 0x3fc99999999999dc, 0x3fd99999999999dc, 0x3fe3333333333333, nan},
			new: [5]uint64{0xbf95d57a850ee237, 0x3fc6deea48f7bd95, 0x3fd83c41f148aba5, 0x3fe284875f0abc34, 0x3fe83c41f148ab89},
		},
		{
			name: "newest run at an interior scale",
			runs: map[int]int{4: 2, 8: 3, 16: 2}, watchNP: 8,
			old: [5]uint64{0x3c8633865fae2a1e, 0x3fc99999999999b4, 0x3fd99999999999b4, 0x3fe3333333333326, 0x3fe999999999999a},
			new: [5]uint64{0x0, 0x3fc99999999999e1, 0x3fd99999999999b4, 0x3fe3333333333352, 0x3fe84649b7699bd0},
		},
		{
			name: "two scales, watched one single-run",
			runs: map[int]int{4: 2, 8: 1}, watchNP: 8,
			old: [5]uint64{nan, nan, nan, nan, nan},
			new: [5]uint64{0xbfa5d57a850ee246, 0x3fc4243af855e157, 0x3fd6deea48f7bd36, 0x3fe1d5db8ae24565, nan},
		},
	} {
		st := slopeState(t, tc.runs)
		for vid := 0; vid < 5; vid++ {
			old, new := st.slopes(tc.watchNP, vid)
			for _, c := range []struct {
				what      string
				got, want uint64
			}{{"SlopeOld", math.Float64bits(old), tc.old[vid]}, {"SlopeNew", math.Float64bits(new), tc.new[vid]}} {
				if c.got != c.want && !(c.want == nan && math.IsNaN(math.Float64frombits(c.got))) {
					t.Errorf("%s: vid %d %s = %#x (%v), want %#x", tc.name, vid, c.what, c.got, math.Float64frombits(c.got), c.want)
				}
			}
		}
	}
}
