package baseline

import (
	"math"
	"testing"

	"scalana/internal/psg"
)

// slopeState builds a five-vertex state whose runs follow
// value = (1+vid) * np^(0.2*vid) * (1 + 0.03*run); vertex 4 is absent
// (NaN) at np=4. runs[np] is the history length at that scale.
func slopeState(t *testing.T, runs map[int]int) *State {
	t.Helper()
	const nv = 5
	st := &State{app: "t", keys: make([]string, nv), verts: make([]*psg.Vertex, nv), byNP: map[int][]Run{}}
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

// fuzzSeedReport builds a report exercising every wire feature: IEEE
// specials (a +Inf z from a zero-variance baseline, NaN slopes from a
// single-scale history), multi-run histories, and non-default params.
func fuzzSeedReport() *Report {
	return &Report{
		App:          "cg",
		NP:           8,
		Newest:       RunRef{NP: 8, Seq: 2, Hash: "00deadbeef", Elapsed: 3.25},
		Runs:         3,
		BaselineRuns: 2,
		Params:       Params{ZThd: 2.5, CUSUMThd: 4, CUSUMK: 0.25, MinRuns: 2, MinShare: 0.05},
		History: []RunRef{
			{NP: 8, Seq: 0, Hash: "aa", Elapsed: 1},
			{NP: 8, Seq: 1, Hash: "bb", Elapsed: 2},
			{NP: 8, Seq: 2, Hash: "00deadbeef", Elapsed: 3.25},
		},
		Vertices: 12,
		Regressions: []Regression{
			{
				Ref:  VertexRef{Key: "main:12", Kind: "comp", Name: "compute", File: "seed.mp", Line: 5},
				Mean: 1, Std: 0, BaselineRuns: 2,
				Value: 20, Z: math.Inf(1), CUSUM: 7.5, Share: 0.4,
				SlopeOld: math.NaN(), SlopeNew: math.NaN(), SlopeDelta: math.NaN(),
			},
			{
				Ref:  VertexRef{Key: "main:20", Kind: "mpi", Name: "mpi_allreduce", File: "seed.mp", Line: 9},
				Mean: 0.5, Std: 0.1, BaselineRuns: 2,
				Value: 0.9, Z: 4, CUSUM: 3.5, Share: 0.1,
				SlopeOld: 0.8, SlopeNew: 1.6, SlopeDelta: 0.8,
			},
		},
	}
}

// TestReportWireBytes pins EncodeJSON's bytes: field order, the merge
// name, +Inf and NaN spelled "inf" and "nan". Nothing reads a report
// back, so these bytes are the format's only contract.
func TestReportWireBytes(t *testing.T) {
	enc, err := fuzzSeedReport().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != wantReportWire {
		t.Errorf("report wire bytes changed:\n%s", enc)
	}
}

const wantReportWire = `{
 "app": "cg",
 "np": 8,
 "newest": {
  "np": 8,
  "seq": 2,
  "hash": "00deadbeef",
  "elapsed": 3.25
 },
 "runs": 3,
 "baseline_runs": 2,
 "merge": "median",
 "params": {
  "z_thd": 2.5,
  "cusum_thd": 4,
  "cusum_k": 0.25,
  "min_runs": 2,
  "min_share": 0.05
 },
 "history": [
  {
   "np": 8,
   "seq": 0,
   "hash": "aa",
   "elapsed": 1
  },
  {
   "np": 8,
   "seq": 1,
   "hash": "bb",
   "elapsed": 2
  },
  {
   "np": 8,
   "seq": 2,
   "hash": "00deadbeef",
   "elapsed": 3.25
  }
 ],
 "vertices": 12,
 "regressions": [
  {
   "vertex": {
    "key": "main:12",
    "kind": "comp",
    "name": "compute",
    "file": "seed.mp",
    "line": 5
   },
   "mean": 1,
   "std": 0,
   "baseline_runs": 2,
   "value": 20,
   "z": "inf",
   "cusum": 7.5,
   "share": 0.4,
   "slope_old": "nan",
   "slope_new": "nan",
   "slope_delta": "nan"
  },
  {
   "vertex": {
    "key": "main:20",
    "kind": "mpi",
    "name": "mpi_allreduce",
    "file": "seed.mp",
    "line": 9
   },
   "mean": 0.5,
   "std": 0.1,
   "baseline_runs": 2,
   "value": 0.9,
   "z": 4,
   "cusum": 3.5,
   "share": 0.1,
   "slope_old": 0.8,
   "slope_new": 1.6,
   "slope_delta": 0.8
  }
 ]
}`
