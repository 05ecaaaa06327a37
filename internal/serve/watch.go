package serve

// The streaming regression endpoint. /v1/watch scores the newest stored
// run at one scale against the rolling baseline built from every
// earlier run (internal/baseline); the request alone sets the
// thresholds. Responses are exactly baseline.EncodeJSON()+'\n', the
// canonical bytes of the query.Watch plan, and concurrent identical
// watch requests coalesce on the plan's key (the full run history plus
// the resolved thresholds) like every other query. Ingested samples are
// cached lazily in the server's query.Cache.

import (
	"net/http"
	"strconv"

	"scalana/internal/baseline"
	"scalana/internal/query"
)

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	app := s.app(w, v.Get("app"))
	if app == nil {
		return
	}
	// Query parameters override the default thresholds.
	q := query.Watch{App: app, Params: baseline.DefaultParams()}
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
