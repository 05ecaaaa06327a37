package detect

// JSON wire format for detection reports. Reports cross process
// boundaries in two places — the scalana-synth accuracy harness writes
// them for CI gates, and scripts consume scalana-detect output — so the
// format must be deterministic (stable field order, sorted scale lists)
// and total (non-finite floats survive the trip: IEEE specials encode as
// the strings "inf", "-inf", "nan", which encoding/json would otherwise
// reject).

import (
	"encoding/json"
	"math"
	"sort"

	"scalana/internal/psg"
)

// WireFloat is a float64 that survives JSON encoding even when
// non-finite: +Inf, -Inf, and NaN marshal as the strings "inf", "-inf",
// and "nan" (encoding/json errors on the bare values).
type WireFloat float64

// MarshalJSON implements json.Marshaler.
func (f WireFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	}
	return json.Marshal(v)
}

// VertexRefJSON identifies one PSG vertex on the wire: the stable key
// plus enough position information to be useful without the graph.
type VertexRefJSON struct {
	Key  string `json:"key"`
	Kind string `json:"kind,omitempty"`
	Name string `json:"name,omitempty"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

type scaleTimeJSON struct {
	NP   int       `json:"np"`
	Time WireFloat `json:"time"`
}

type nonScalableJSON struct {
	Vertex  VertexRefJSON   `json:"vertex"`
	ModelA  WireFloat       `json:"model_a"`
	ModelB  WireFloat       `json:"model_b"`
	ModelR2 WireFloat       `json:"model_r2"`
	Share   WireFloat       `json:"share"`
	Times   []scaleTimeJSON `json:"times,omitempty"`
}

type abnormalJSON struct {
	Vertex       VertexRefJSON `json:"vertex"`
	Ratio        WireFloat     `json:"ratio"`
	OutlierRanks []int         `json:"outlier_ranks,omitempty"`
	Share        WireFloat     `json:"share"`
}

type stepJSON struct {
	Vertex VertexRefJSON `json:"vertex"`
	Rank   int           `json:"rank"`
	Via    string        `json:"via"`
	Wait   WireFloat     `json:"wait"`
}

type causeJSON struct {
	Vertex    VertexRefJSON `json:"vertex"`
	Score     WireFloat     `json:"score"`
	Share     WireFloat     `json:"share"`
	Imbalance WireFloat     `json:"imbalance"`
	Paths     int           `json:"paths"`
}

type pathJSON struct {
	Steps []stepJSON `json:"steps,omitempty"`
	Cause *causeJSON `json:"cause,omitempty"`
}

type reportJSON struct {
	NP          int               `json:"np"`
	NonScalable []nonScalableJSON `json:"non_scalable,omitempty"`
	Abnormal    []abnormalJSON    `json:"abnormal,omitempty"`
	Paths       []pathJSON        `json:"paths,omitempty"`
	Causes      []causeJSON       `json:"causes,omitempty"`
}

// vertexRef renders a vertex reference from a live vertex (preferred) or
// a bare key.
func vertexRef(v *psg.Vertex, key string) VertexRefJSON {
	if v == nil {
		return VertexRefJSON{Key: key}
	}
	return VertexRefJSON{Key: v.Key, Kind: v.Kind.String(), Name: v.Name, File: v.Pos.File, Line: v.Pos.Line}
}

func causeToJSON(c *Cause) *causeJSON {
	if c == nil {
		return nil
	}
	return &causeJSON{
		Vertex:    vertexRef(c.Vertex, c.VertexKey),
		Score:     WireFloat(c.Score),
		Share:     WireFloat(c.Share),
		Imbalance: WireFloat(c.Imbalance),
		Paths:     c.Paths,
	}
}

// EncodeJSON serializes the report deterministically (indented, scale
// lists sorted by np).
func (rep *Report) EncodeJSON() ([]byte, error) {
	dto := reportJSON{NP: rep.NP}
	for _, ns := range rep.NonScalable {
		j := nonScalableJSON{
			Vertex:  vertexRef(ns.Vertex, ns.VertexKey),
			ModelA:  WireFloat(ns.Model.A),
			ModelB:  WireFloat(ns.Model.B),
			ModelR2: WireFloat(ns.Model.R2),
			Share:   WireFloat(ns.Share),
		}
		nps := make([]int, 0, len(ns.Times))
		for np := range ns.Times {
			nps = append(nps, np)
		}
		sort.Ints(nps)
		for _, np := range nps {
			j.Times = append(j.Times, scaleTimeJSON{NP: np, Time: WireFloat(ns.Times[np])})
		}
		dto.NonScalable = append(dto.NonScalable, j)
	}
	for _, ab := range rep.Abnormal {
		dto.Abnormal = append(dto.Abnormal, abnormalJSON{
			Vertex:       vertexRef(ab.Vertex, ab.VertexKey),
			Ratio:        WireFloat(ab.Ratio),
			OutlierRanks: ab.OutlierRanks,
			Share:        WireFloat(ab.Share),
		})
	}
	for _, p := range rep.Paths {
		pj := pathJSON{Cause: causeToJSON(p.Cause)}
		for _, st := range p.Steps {
			pj.Steps = append(pj.Steps, stepJSON{
				Vertex: vertexRef(st.Vertex, st.VertexKey),
				Rank:   st.Rank,
				Via:    string(st.Via),
				Wait:   WireFloat(st.Wait),
			})
		}
		dto.Paths = append(dto.Paths, pj)
	}
	for i := range rep.Causes {
		dto.Causes = append(dto.Causes, *causeToJSON(&rep.Causes[i]))
	}
	return json.MarshalIndent(dto, "", " ")
}
