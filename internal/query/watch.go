package query

import (
	"fmt"
	"net/http"
	"strings"

	"scalana/internal/baseline"
	"scalana/internal/fit"
	"scalana/internal/psg"
	"scalana/internal/store"

	scalana "scalana"
)

// Watch is a streaming-regression query: score the newest stored run at
// one scale against the rolling per-vertex baseline of every earlier
// run (internal/baseline).
type Watch struct {
	App *scalana.App
	// NP is the scale to watch; 0 means the largest stored scale.
	NP int
	// Params are the flagging thresholds. A zero float takes its
	// baseline.DefaultParams value; negative thresholds and MinRuns below
	// 1 are rejected.
	Params baseline.Params
}

// sample is one stored set's baseline sample: from e.Cache when it holds
// it, else ingested.
func (e *Env) sample(app *scalana.App, ent store.Entry) (*baseline.Sample, error) {
	if smp := e.Cache.sample(ent.Key); smp != nil {
		return smp, nil
	}
	return e.ingest(app, ent)
}

// ingest reduces one stored set to its baseline sample, read from the
// stored bytes, and caches it in e.Cache.
func (e *Env) ingest(app *scalana.App, ent store.Entry) (*baseline.Sample, error) {
	pg, set, _, err := e.stored(app, ent, true)
	if err != nil {
		return nil, err
	}
	smp := baseline.Ingest(pg, ent.Hash, set.Elapsed, fit.MergeMedian)
	e.Cache.addSample(ent.Key, smp)
	return smp, nil
}

// Watch plans a watch query.
func (e *Env) Watch(q Watch) (Plan[*baseline.Report], error) {
	var none Plan[*baseline.Report]
	p := q.Params
	for _, f := range []struct {
		name string
		v    float64
	}{{"z", p.ZThd}, {"cusum", p.CUSUMThd}, {"cusum-k", p.CUSUMK}, {"min-share", p.MinShare}} {
		if !(f.v >= 0) {
			return none, errorf(http.StatusBadRequest, "bad %s \"%g\"", f.name, f.v)
		}
	}
	if p.MinRuns < 1 {
		return none, errorf(http.StatusBadRequest, "bad min-runs \"%d\"", p.MinRuns)
	}
	if q.NP < 0 {
		return none, errorf(http.StatusBadRequest, "bad np \"%d\"", q.NP)
	}
	p = p.Normalized()
	nps, hists, err := e.Histories(q.App.Name)
	if err != nil {
		return none, err
	}
	np := q.NP
	if np == 0 {
		np = nps[len(nps)-1]
	}
	if len(hists[np]) == 0 {
		return none, errorf(http.StatusNotFound, "no profile sets stored for app %q at np=%d", q.App.Name, np)
	}

	// The key names every scale's history in upload order (slope fits
	// read all scales) plus the resolved thresholds.
	parts := make([]string, len(nps))
	for i, n := range nps {
		hashes := make([]string, len(hists[n]))
		for j, ent := range hists[n] {
			hashes[j] = ent.Hash
		}
		parts[i] = fmt.Sprintf("%d:%s", n, strings.Join(hashes, ","))
	}
	key := fmt.Sprintf("watch|%s|np=%d|%s|z=%g|cusum=%g|k=%g|minruns=%d|minshare=%g", q.App.Name, np,
		strings.Join(parts, ";"), p.ZThd, p.CUSUMThd, p.CUSUMK, p.MinRuns, p.MinShare)

	return Plan[*baseline.Report]{Key: key, Run: func() (*baseline.Report, []byte, error) {
		_, graph, err := e.Engine.Compile(q.App, psg.Options{})
		if err != nil {
			return nil, nil, err
		}
		// Every scale goes in: cross-scale slope fits need them all.
		state := baseline.NewState(q.App.Name, graph, fit.MergeMedian)
		for _, n := range nps {
			for seq, ent := range hists[n] {
				smp, err := e.sample(q.App, ent)
				if err != nil {
					return nil, nil, err
				}
				if err := state.Add(seq, smp); err != nil {
					return nil, nil, err
				}
			}
		}
		rep, err := state.Watch(np, p)
		if err != nil {
			return nil, nil, err
		}
		data, err := rep.EncodeJSON()
		return rep, append(data, '\n'), err
	}}, nil
}
