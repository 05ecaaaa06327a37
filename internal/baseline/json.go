package baseline

// JSON wire format for watch reports, which `GET /v1/watch` serves. The
// acceptance contract is byte determinism: identical history, identical
// bytes. The format therefore reuses detect's wire conventions wholesale:
// detect.WireFloat so IEEE specials survive (zero-variance baselines
// legitimately produce z = +Inf), MarshalIndent with a single-space
// indent, and vertex references carried as detect.VertexRefJSON.

import (
	"encoding/json"

	"scalana/internal/detect"
)

// VertexRef identifies one PSG vertex on the wire; it is detect's wire
// reference, shared so both report formats name vertices identically.
type VertexRef = detect.VertexRefJSON

type paramsJSON struct {
	ZThd     detect.WireFloat `json:"z_thd"`
	CUSUMThd detect.WireFloat `json:"cusum_thd"`
	CUSUMK   detect.WireFloat `json:"cusum_k"`
	MinRuns  int              `json:"min_runs"`
	MinShare detect.WireFloat `json:"min_share"`
}

type runRefJSON struct {
	NP      int              `json:"np"`
	Seq     int              `json:"seq"`
	Hash    string           `json:"hash,omitempty"`
	Elapsed detect.WireFloat `json:"elapsed"`
}

type regressionJSON struct {
	Vertex       VertexRef        `json:"vertex"`
	Mean         detect.WireFloat `json:"mean"`
	Std          detect.WireFloat `json:"std"`
	BaselineRuns int              `json:"baseline_runs"`
	Value        detect.WireFloat `json:"value"`
	Z            detect.WireFloat `json:"z"`
	CUSUM        detect.WireFloat `json:"cusum"`
	Share        detect.WireFloat `json:"share"`
	SlopeOld     detect.WireFloat `json:"slope_old"`
	SlopeNew     detect.WireFloat `json:"slope_new"`
	SlopeDelta   detect.WireFloat `json:"slope_delta"`
}

type reportJSON struct {
	App          string           `json:"app"`
	NP           int              `json:"np"`
	Newest       runRefJSON       `json:"newest"`
	Runs         int              `json:"runs"`
	BaselineRuns int              `json:"baseline_runs"`
	Merge        string           `json:"merge"`
	Params       paramsJSON       `json:"params"`
	History      []runRefJSON     `json:"history,omitempty"`
	Vertices     int              `json:"vertices"`
	Regressions  []regressionJSON `json:"regressions,omitempty"`
}

func runRefToJSON(r RunRef) runRefJSON {
	return runRefJSON{NP: r.NP, Seq: r.Seq, Hash: r.Hash, Elapsed: detect.WireFloat(r.Elapsed)}
}

// EncodeJSON serializes the report deterministically: fixed field order,
// history in fold order, regressions in ranked order, indented exactly
// as detect.Report.EncodeJSON so serve's framing (payload + '\n') is
// uniform across endpoints.
func (rep *Report) EncodeJSON() ([]byte, error) {
	dto := reportJSON{
		App:          rep.App,
		NP:           rep.NP,
		Newest:       runRefToJSON(rep.Newest),
		Runs:         rep.Runs,
		BaselineRuns: rep.BaselineRuns,
		Merge:        "median",
		Params: paramsJSON{
			ZThd:     detect.WireFloat(rep.Params.ZThd),
			CUSUMThd: detect.WireFloat(rep.Params.CUSUMThd),
			CUSUMK:   detect.WireFloat(rep.Params.CUSUMK),
			MinRuns:  rep.Params.MinRuns,
			MinShare: detect.WireFloat(rep.Params.MinShare),
		},
		Vertices: rep.Vertices,
	}
	for _, r := range rep.History {
		dto.History = append(dto.History, runRefToJSON(r))
	}
	for _, reg := range rep.Regressions {
		dto.Regressions = append(dto.Regressions, regressionJSON{
			Vertex:       reg.Ref,
			Mean:         detect.WireFloat(reg.Mean),
			Std:          detect.WireFloat(reg.Std),
			BaselineRuns: reg.BaselineRuns,
			Value:        detect.WireFloat(reg.Value),
			Z:            detect.WireFloat(reg.Z),
			CUSUM:        detect.WireFloat(reg.CUSUM),
			Share:        detect.WireFloat(reg.Share),
			SlopeOld:     detect.WireFloat(reg.SlopeOld),
			SlopeNew:     detect.WireFloat(reg.SlopeNew),
			SlopeDelta:   detect.WireFloat(reg.SlopeDelta),
		})
	}
	return json.MarshalIndent(dto, "", " ")
}
