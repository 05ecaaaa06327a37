package detect

// The reflection encoder EncodeJSON replaced, kept as its test oracle:
// a DTO marshalled by json.MarshalIndent, with floats spelled by
// json.Marshal, so the writer's bytes are checked against encoding/json
// rather than against its own appenders.

import (
	"encoding/json"
	"math"
	"sort"

	"scalana/internal/psg"
)

// oracleFloat is WireFloat as encoding/json spells it: the specials as
// strings, every finite value by json.Marshal.
type oracleFloat float64

func (f oracleFloat) MarshalJSON() ([]byte, error) {
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

type scaleTimeJSON struct {
	NP   int         `json:"np"`
	Time oracleFloat `json:"time"`
}

type nonScalableJSON struct {
	Vertex  VertexRefJSON   `json:"vertex"`
	ModelA  oracleFloat     `json:"model_a"`
	ModelB  oracleFloat     `json:"model_b"`
	ModelR2 oracleFloat     `json:"model_r2"`
	Share   oracleFloat     `json:"share"`
	Times   []scaleTimeJSON `json:"times,omitempty"`
}

type abnormalJSON struct {
	Vertex       VertexRefJSON `json:"vertex"`
	Ratio        oracleFloat   `json:"ratio"`
	OutlierRanks []int         `json:"outlier_ranks,omitempty"`
	Share        oracleFloat   `json:"share"`
}

type stepJSON struct {
	Vertex VertexRefJSON `json:"vertex"`
	Rank   int           `json:"rank"`
	Via    string        `json:"via"`
	Wait   oracleFloat   `json:"wait"`
}

type causeJSON struct {
	Vertex    VertexRefJSON `json:"vertex"`
	Score     oracleFloat   `json:"score"`
	Share     oracleFloat   `json:"share"`
	Imbalance oracleFloat   `json:"imbalance"`
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
		Score:     oracleFloat(c.Score),
		Share:     oracleFloat(c.Share),
		Imbalance: oracleFloat(c.Imbalance),
		Paths:     c.Paths,
	}
}

// encodeOracle is EncodeJSON by reflection: the report as a DTO, indented
// by json.MarshalIndent.
func encodeOracle(rep *Report) ([]byte, error) {
	dto := reportJSON{NP: rep.NP}
	for _, ns := range rep.NonScalable {
		j := nonScalableJSON{
			Vertex:  vertexRef(ns.Vertex, ns.VertexKey),
			ModelA:  oracleFloat(ns.Model.A),
			ModelB:  oracleFloat(ns.Model.B),
			ModelR2: oracleFloat(ns.Model.R2),
			Share:   oracleFloat(ns.Share),
		}
		nps := make([]int, 0, len(ns.Times))
		for np := range ns.Times {
			nps = append(nps, np)
		}
		sort.Ints(nps)
		for _, np := range nps {
			j.Times = append(j.Times, scaleTimeJSON{NP: np, Time: oracleFloat(ns.Times[np])})
		}
		dto.NonScalable = append(dto.NonScalable, j)
	}
	for _, ab := range rep.Abnormal {
		dto.Abnormal = append(dto.Abnormal, abnormalJSON{
			Vertex:       vertexRef(ab.Vertex, ab.VertexKey),
			Ratio:        oracleFloat(ab.Ratio),
			OutlierRanks: ab.OutlierRanks,
			Share:        oracleFloat(ab.Share),
		})
	}
	for _, p := range rep.Paths {
		pj := pathJSON{Cause: causeToJSON(p.Cause)}
		for _, st := range p.Steps {
			pj.Steps = append(pj.Steps, stepJSON{
				Vertex: vertexRef(st.Vertex, st.VertexKey),
				Rank:   st.Rank,
				Via:    string(st.Via),
				Wait:   oracleFloat(st.Wait),
			})
		}
		dto.Paths = append(dto.Paths, pj)
	}
	for i := range rep.Causes {
		dto.Causes = append(dto.Causes, *causeToJSON(&rep.Causes[i]))
	}
	return json.MarshalIndent(dto, "", " ")
}
