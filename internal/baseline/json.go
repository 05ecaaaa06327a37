package baseline

// JSON wire format for watch reports. The report crosses process
// boundaries in both directions — `GET /v1/watch` serves it and
// `scalana-detect -watch -json` writes it — and the acceptance contract
// is byte determinism: identical history, identical bytes, whichever
// side rendered them. The format therefore reuses detect's wire
// conventions wholesale: detect.WireFloat so IEEE specials survive
// (zero-variance baselines legitimately produce z = +Inf), MarshalIndent
// with a single-space indent, and vertex references carried as
// detect.VertexRefJSON.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

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

// Render formats the report for terminal output (scalana-detect -watch
// without -json).
func (rep *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== watch: %s at np=%d ==\n", rep.App, rep.NP)
	fmt.Fprintf(&b, "newest run: seq=%d hash=%s elapsed=%s\n",
		rep.Newest.Seq, shortHash(rep.Newest.Hash), fmtFloat(rep.Newest.Elapsed))
	fmt.Fprintf(&b, "history: %d run(s), %d in baseline, merge=median\n",
		rep.Runs, rep.BaselineRuns)
	fmt.Fprintf(&b, "thresholds: z>=%s cusum>=%s (k=%s) min-runs=%d min-share=%s\n",
		fmtFloat(rep.Params.ZThd), fmtFloat(rep.Params.CUSUMThd), fmtFloat(rep.Params.CUSUMK),
		rep.Params.MinRuns, fmtFloat(rep.Params.MinShare))
	if rep.Quiet() {
		fmt.Fprintf(&b, "no regressions (%d vertices scored)\n", rep.Vertices)
		return b.String()
	}
	fmt.Fprintf(&b, "%d regression(s) across %d scored vertices:\n", len(rep.Regressions), rep.Vertices)
	for i, reg := range rep.Regressions {
		loc := ""
		if reg.Ref.File != "" {
			loc = fmt.Sprintf(" (%s:%d)", reg.Ref.File, reg.Ref.Line)
		}
		fmt.Fprintf(&b, " %d. %s%s\n", i+1, reg.Ref.Key, loc)
		fmt.Fprintf(&b, "    value=%s baseline=%s±%s over %d run(s) z=%s cusum=%s share=%s\n",
			fmtFloat(reg.Value), fmtFloat(reg.Mean), fmtFloat(reg.Std),
			reg.BaselineRuns, fmtFloat(reg.Z), fmtFloat(reg.CUSUM), fmtFloat(reg.Share))
		if !math.IsNaN(reg.SlopeOld) || !math.IsNaN(reg.SlopeNew) {
			fmt.Fprintf(&b, "    slope %s -> %s (delta %s)\n",
				fmtFloat(reg.SlopeOld), fmtFloat(reg.SlopeNew), fmtFloat(reg.SlopeDelta))
		}
	}
	return b.String()
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "-"
	}
	return h
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return fmt.Sprintf("%.6g", v)
}
