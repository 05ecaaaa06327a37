package serve

// Streaming regression endpoints. /v1/watch scores the newest stored
// run at one scale against the rolling baseline built from every
// earlier run (internal/baseline), and /v1/baseline warms or rebuilds
// the server's sample cache from the store. Watch responses are exactly
// baseline.EncodeJSON()+'\n', the canonical bytes of the query.Watch plan
// scalana-detect -watch -json runs too, and concurrent identical watch
// requests coalesce on the plan's key (the full run history plus the
// resolved thresholds) like every other query.

import (
	"net/http"
	"strconv"

	"scalana/internal/baseline"
	"scalana/internal/query"
	"scalana/internal/store"

	scalana "scalana"
)

// sampleCount returns the baseline cache size.
func (s *Server) sampleCount() int {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	return len(s.samples)
}

// dropSamples evicts cached samples for one app (rebuild support).
func (s *Server) dropSamples(appName string) int {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	n := 0
	for k := range s.samples {
		if k.App == appName {
			delete(s.samples, k)
			n++
		}
	}
	return n
}

// sampleFor is the query.Env sample lookup: the ingested sample for one
// stored set, from cache or by ingesting the stored bytes. Samples are
// content-addressed, so a concurrent double-ingest is wasted work but
// never a wrong answer.
func (s *Server) sampleFor(app *scalana.App, e store.Entry) (*baseline.Sample, error) {
	s.sampleMu.Lock()
	smp := s.samples[e.Key]
	s.sampleMu.Unlock()
	if smp != nil {
		return smp, nil
	}
	smp, err := s.env.Ingest(app, e)
	if err != nil {
		return nil, err
	}
	s.sampleIngests.Add(1)
	s.sampleMu.Lock()
	s.samples[e.Key] = smp
	s.sampleMu.Unlock()
	return smp, nil
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	app := s.app(w, v.Get("app"))
	if app == nil {
		return
	}
	// Query parameters override the server's configured thresholds.
	q := query.Watch{App: app, Params: s.cfg.Watch}
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"z", &q.Params.ZThd},
		{"cusum", &q.Params.CUSUMThd},
		{"cusum-k", &q.Params.CUSUMK},
		{"min-share", &q.Params.MinShare},
	} {
		if sv := v.Get(f.name); sv != "" {
			var err error
			if *f.dst, err = strconv.ParseFloat(sv, 64); err != nil {
				writeErr(w, http.StatusBadRequest, "bad %s %q", f.name, sv)
				return
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"min-runs", &q.Params.MinRuns}, {"np", &q.NP}} {
		if sv := v.Get(f.name); sv != "" {
			var err error
			if *f.dst, err = strconv.Atoi(sv); err != nil || *f.dst < 1 {
				writeErr(w, http.StatusBadRequest, "bad %s %q", f.name, sv)
				return
			}
		}
	}
	plan, err := s.env.Watch(q)
	answer(s, w, &s.watches, plan, err)
}

// ---- baseline warm/rebuild ----

type baselineRequest struct {
	// App names the application whose stored runs to ingest.
	App string `json:"app"`
	// Rebuild drops the app's cached samples first, forcing re-ingestion
	// from stored bytes.
	Rebuild bool `json:"rebuild,omitempty"`
}

type baselineScaleJSON struct {
	NP   int `json:"np"`
	Runs int `json:"runs"`
}

type baselineResponseJSON struct {
	App      string              `json:"app"`
	Merge    string              `json:"merge"`
	Scales   []baselineScaleJSON `json:"scales"`
	Runs     int                 `json:"runs"`
	Ingested int64               `json:"ingested"`
	Evicted  int                 `json:"evicted,omitempty"`
}

func (s *Server) handleBaseline(w http.ResponseWriter, r *http.Request) {
	var req baselineRequest
	if !readJSON(w, r, 1<<20, &req) {
		return
	}
	app := s.app(w, req.App)
	if app == nil {
		return
	}
	evicted := 0
	if req.Rebuild {
		evicted = s.dropSamples(app.Name)
	}
	nps, hists, err := s.env.Histories(app.Name)
	if err != nil {
		fail(w, err)
		return
	}
	defer s.acquire()()
	before := s.sampleIngests.Load()
	resp := baselineResponseJSON{App: app.Name, Merge: s.env.Merge.String(), Evicted: evicted}
	for _, np := range nps {
		for _, e := range hists[np] {
			if _, err := s.sampleFor(app, e); err != nil {
				fail(w, err)
				return
			}
		}
		resp.Scales = append(resp.Scales, baselineScaleJSON{NP: np, Runs: len(hists[np])})
		resp.Runs += len(hists[np])
	}
	resp.Ingested = s.sampleIngests.Load() - before
	writeJSON(w, http.StatusOK, resp)
}
