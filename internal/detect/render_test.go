package detect

import (
	"math"
	"strings"
	"testing"

	"scalana/internal/fit"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// TestFmtSecBoundaries pins the unit switchover points of the waiting
// time formatter.
func TestFmtSecBoundaries(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.0us"},
		{5e-7, "0.5us"},
		{9.99e-4, "999.0us"},
		{1e-3, "1.00ms"},
		{0.5, "500.00ms"},
		{0.9999, "999.90ms"},
		{1, "1.000s"},
		{12.3456, "12.346s"},
	}
	for _, c := range cases {
		if got := fmtSec(c.in); got != c.want {
			t.Errorf("fmtSec(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRenderEmptyReport: a report with no findings renders every section
// header with zero counts and no panic, with or without a program for
// source snippets.
func TestRenderEmptyReport(t *testing.T) {
	rep := &Report{NP: 16}
	out := rep.Render(nil)
	for _, want := range []string{
		"largest scale np=16",
		"non-scalable vertices (0):",
		"abnormal vertices (0):",
		"backtracking paths (0):",
		"root causes (ranked):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty report output missing %q:\n%s", want, out)
		}
	}
}

// fuzzSeedReport builds a report exercising every wire feature:
// non-scalable fits, an infinite abnormal ratio, multi-step paths with
// waits, and ranked causes.
func fuzzSeedReport() *Report {
	v := func(key, name string, kind psg.Kind, line int) *psg.Vertex {
		return &psg.Vertex{Key: key, Kind: kind, Name: name, Pos: minilang.Pos{File: "seed.mp", Line: line}}
	}
	loop := v("main:10", "loop", psg.KindLoop, 4)
	comp := v("main:12", "compute", psg.KindComp, 5)
	coll := v("main:20", "mpi_allreduce", psg.KindMPI, 9)
	cause := &Cause{VertexKey: comp.Key, Vertex: comp, Score: 0.5, Share: 0.25, Imbalance: 2, Paths: 1}
	return &Report{
		NP: 8,
		NonScalable: []NonScalable{{
			VertexKey: coll.Key, Vertex: coll,
			Model: fit.LogLog{A: -2.5, B: 1.25, R2: 0.99},
			Share: 0.5, Times: map[int]float64{4: 0.01, 8: 0.025},
		}},
		Abnormal: []Abnormal{{
			VertexKey: comp.Key, Vertex: comp, Ratio: math.Inf(1), OutlierRanks: []int{0, 2}, Share: 0.25,
		}},
		Paths: []Path{{
			Steps: []PathStep{
				{VertexKey: coll.Key, Vertex: coll, Rank: 3, Via: ViaStart},
				{VertexKey: comp.Key, Vertex: comp, Rank: 1, Via: ViaComm, Wait: 0.0125},
				{VertexKey: loop.Key, Vertex: loop, Rank: 1, Via: ViaData},
			},
			Cause: cause,
		}},
		Causes: []Cause{*cause},
	}
}

// TestReportWireBytes pins EncodeJSON's bytes: field order, +Inf spelled
// "inf", per-scale times sorted by np. Nothing reads a report back, so
// these bytes are the format's only contract.
func TestReportWireBytes(t *testing.T) {
	rep := fuzzSeedReport()
	enc, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != wantReportWire {
		t.Errorf("report wire bytes changed:\n%s", enc)
	}
	out := rep.Render(nil)
	for _, want := range []string{"ratio=inf", "(waited 12.50ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("seed report render missing %q:\n%s", want, out)
		}
	}
}

const wantReportWire = `{
 "np": 8,
 "non_scalable": [
  {
   "vertex": {
    "key": "main:20",
    "kind": "MPI",
    "name": "mpi_allreduce",
    "file": "seed.mp",
    "line": 9
   },
   "model_a": -2.5,
   "model_b": 1.25,
   "model_r2": 0.99,
   "share": 0.5,
   "times": [
    {
     "np": 4,
     "time": 0.01
    },
    {
     "np": 8,
     "time": 0.025
    }
   ]
  }
 ],
 "abnormal": [
  {
   "vertex": {
    "key": "main:12",
    "kind": "Comp",
    "name": "compute",
    "file": "seed.mp",
    "line": 5
   },
   "ratio": "inf",
   "outlier_ranks": [
    0,
    2
   ],
   "share": 0.25
  }
 ],
 "paths": [
  {
   "steps": [
    {
     "vertex": {
      "key": "main:20",
      "kind": "MPI",
      "name": "mpi_allreduce",
      "file": "seed.mp",
      "line": 9
     },
     "rank": 3,
     "via": "start",
     "wait": 0
    },
    {
     "vertex": {
      "key": "main:12",
      "kind": "Comp",
      "name": "compute",
      "file": "seed.mp",
      "line": 5
     },
     "rank": 1,
     "via": "comm",
     "wait": 0.0125
    },
    {
     "vertex": {
      "key": "main:10",
      "kind": "Loop",
      "name": "loop",
      "file": "seed.mp",
      "line": 4
     },
     "rank": 1,
     "via": "data",
     "wait": 0
    }
   ],
   "cause": {
    "vertex": {
     "key": "main:12",
     "kind": "Comp",
     "name": "compute",
     "file": "seed.mp",
     "line": 5
    },
    "score": 0.5,
    "share": 0.25,
    "imbalance": 2,
    "paths": 1
   }
  }
 ],
 "causes": [
  {
   "vertex": {
    "key": "main:12",
    "kind": "Comp",
    "name": "compute",
    "file": "seed.mp",
    "line": 5
   },
   "score": 0.5,
   "share": 0.25,
   "imbalance": 2,
   "paths": 1
  }
 ]
}`
