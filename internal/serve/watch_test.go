package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"scalana/internal/baseline"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/query"
	"scalana/internal/store"

	scalana "scalana"
)

// scaleSet rewrites a profile set with every vertex's sampled time
// multiplied by factor — run-to-run noise with a dial on it. The
// simulator is fully deterministic (identical runs produce identical
// bytes, which the content-addressed store dedups into ONE run), so a
// multi-run history needs controlled perturbation instead of seeds.
func scaleSet(t *testing.T, data []byte, graph *psg.Graph, factor float64) []byte {
	t.Helper()
	ps, err := prof.DecodeProfileSet(data, graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range ps.Profiles {
		for vid := range rp.Vertex {
			rp.Vertex[vid].Time *= factor
		}
	}
	ps.Elapsed *= factor
	out, err := prof.EncodeProfileSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// inflateVertex rewrites one profile set with a vertex's sampled time
// multiplied on every rank — a synthetic regression at a known VID.
func inflateVertex(t *testing.T, data []byte, graph *psg.Graph, vid psg.VID, factor float64) []byte {
	t.Helper()
	ps, err := prof.DecodeProfileSet(data, graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range ps.Profiles {
		rp.Vertex[vid].Time *= factor
		rp.Vertex[vid].Samples = int64(float64(rp.Vertex[vid].Samples) * factor)
	}
	ps.Elapsed *= 1.1 // the regression shows up in wall clock too
	out, err := prof.EncodeProfileSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hottestVertex picks the non-root vertex with the largest median
// per-rank time — a regression target guaranteed to clear MinShare.
func hottestVertex(t *testing.T, data []byte, graph *psg.Graph) psg.VID {
	t.Helper()
	ps, err := prof.DecodeProfileSet(data, graph)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := ppg.Build(graph, ps.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	best, bestVal := psg.VID(0), math.Inf(-1)
	for vid := 0; vid < pg.NumVIDs(); vid++ {
		v := graph.VertexByVID(psg.VID(vid))
		if v == nil || v.Kind == psg.KindRoot {
			continue
		}
		if m := fit.Merge(pg.TimeSeries(psg.VID(vid))); m > bestVal {
			best, bestVal = psg.VID(vid), m
		}
	}
	if bestVal <= 0 {
		t.Fatal("no vertex with positive time in the fixture")
	}
	return best
}

// TestWatchEndToEnd is the tentpole acceptance test: a three-run quiet
// history stays quiet, a fourth run with a seeded 20x regression is
// flagged at the correct vertex, repeated requests are byte-identical,
// and the served bytes equal the same query run against an uncached
// environment over the same store.
func TestWatchEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}

	// Three baseline runs: the base profile with ±0.1% noise, newest at
	// the baseline mean so the quiet watch stays quiet.
	base := encodeSets(t, srv.env.Engine, app, []int{4}, 1000)[4]
	for _, f := range []float64{0.999, 1.001, 1.000} {
		set := scaleSet(t, base, graph, f)
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
			t.Fatalf("upload factor %g: %d %s", f, code, body)
		}
	}

	// Every served watch is checked against the same query run in process
	// with no sample cache, and its verdict read from that plan's typed
	// report.
	cli := query.Env{Engine: scalana.NewEngine(), Store: srv.env.Store}
	offline := func(served []byte, params baseline.Params) *baseline.Report {
		t.Helper()
		plan, err := cli.Watch(query.Watch{App: app, NP: 4, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		rep, data, err := plan.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, data) {
			t.Fatalf("served watch differs from the offline pipeline\nserved %d bytes, offline %d bytes", len(served), len(data))
		}
		return rep
	}

	// Quiet history: nothing regressed yet.
	code, body := get(t, ts.URL+"/v1/watch?app=cg")
	if code != http.StatusOK {
		t.Fatalf("watch quiet: %d %s", code, body)
	}
	rep := offline(body, baseline.DefaultParams())
	if len(rep.Regressions) != 0 {
		t.Fatalf("quiet 3-run history flagged %d regressions (first: %+v)", len(rep.Regressions), rep.Regressions[0])
	}
	if rep.Runs != 3 || rep.NP != 4 {
		t.Fatalf("watch envelope: runs=%d np=%d", rep.Runs, rep.NP)
	}

	// Seed a 20x regression at the hottest vertex and upload it.
	target := hottestVertex(t, base, graph)
	regressed := inflateVertex(t, scaleSet(t, base, graph, 1.0005), graph, target, 20)
	if code, body := post(t, ts.URL+"/v1/profiles", "application/json", regressed); code != http.StatusCreated {
		t.Fatalf("upload regressed: %d %s", code, body)
	}

	code, flagged := get(t, ts.URL+"/v1/watch?app=cg")
	if code != http.StatusOK {
		t.Fatalf("watch flagged: %d %s", code, flagged)
	}
	rep = offline(flagged, baseline.DefaultParams())
	if len(rep.Regressions) == 0 {
		t.Fatal("seeded 20x regression was not flagged")
	}
	wantKey := graph.Keys()[target]
	if got := rep.Regressions[0].Ref.Key; got != wantKey {
		t.Fatalf("top regression at %q, want the seeded vertex %q", got, wantKey)
	}
	if rep.Runs != 4 || rep.BaselineRuns != 3 {
		t.Fatalf("regressed watch accounting: runs=%d baseline=%d", rep.Runs, rep.BaselineRuns)
	}

	// Byte determinism across repeated requests.
	if _, again := get(t, ts.URL+"/v1/watch?app=cg"); !bytes.Equal(flagged, again) {
		t.Fatal("repeated watch requests differ")
	}

	// Threshold overrides change the flight key and the result: an
	// impossibly high min-share silences the report.
	code, quiet := get(t, ts.URL+"/v1/watch?app=cg&min-share=0.9999")
	if code != http.StatusOK {
		t.Fatalf("watch with overrides: %d %s", code, quiet)
	}
	params := baseline.DefaultParams()
	params.MinShare = 0.9999
	if rep := offline(quiet, params); len(rep.Regressions) != 0 {
		t.Fatal("min-share=0.9999 still flagged")
	}
}

// TestServeErrorClasses locks the HTTP status for every failure class
// the satellite names: malformed JSON, unknown app, ambiguous hash
// prefix, scales below MinNP, and bad watch parameters. Store
// corruption (500) has its own test below.
func TestServeErrorClasses(t *testing.T) {
	srv, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	// Two sets at np=4 (ambiguous scale), plus enough sets at np=8 that
	// some pair of stored hashes must share a first hex character — a
	// guaranteed-ambiguous one-char prefix for the Resolve path.
	var hashes []string
	for _, hz := range []float64{1000, 500} {
		set := encodeSets(t, srv.env.Engine, app, []int{4}, hz)[4]
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
			t.Fatalf("upload: %d %s", code, body)
		}
		hashes = append(hashes, store.HashOf(set))
	}
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	base8 := encodeSets(t, srv.env.Engine, app, []int{8}, 1000)[8]
	ambiguousPrefix := ""
	for i := 0; ambiguousPrefix == "" && i < 20; i++ {
		set := scaleSet(t, base8, graph, 1-0.0001*float64(i))
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
			t.Fatalf("upload np=8: %d %s", code, body)
		}
		hashes = append(hashes, store.HashOf(set))
		seen := map[byte]bool{}
		for _, h := range hashes {
			if seen[h[0]] {
				ambiguousPrefix = h[:1]
			}
			seen[h[0]] = true
		}
	}
	if ambiguousPrefix == "" {
		t.Fatal("no ambiguous hash prefix after 20 distinct uploads (pigeonhole says near-impossible)")
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"detect malformed JSON", "POST", "/v1/detect", `not json`, http.StatusBadRequest},
		{"detect unknown app", "POST", "/v1/detect", `{"app":"no-such-app"}`, http.StatusNotFound},
		{"detect ambiguous scale", "POST", "/v1/detect", `{"app":"cg","scales":[4]}`, http.StatusConflict},
		{"detect ambiguous hash prefix", "POST", "/v1/detect", fmt.Sprintf(`{"app":"cg","hashes":[%q]}`, ambiguousPrefix), http.StatusConflict},
		{"detect non-hex hash", "POST", "/v1/detect", `{"app":"cg","hashes":["zz"]}`, http.StatusBadRequest},
		{"detect below MinNP", "POST", "/v1/detect", `{"app":"cg","simulate":true,"scales":[1]}`, http.StatusBadRequest},
		{"baseline endpoint is gone", "POST", "/v1/baseline", `{"app":"cg"}`, http.StatusNotFound},
		{"watch unknown app", "GET", "/v1/watch?app=no-such-app", "", http.StatusNotFound},
		{"watch bad z", "GET", "/v1/watch?app=cg&z=bogus", "", http.StatusBadRequest},
		{"watch negative cusum", "GET", "/v1/watch?app=cg&cusum=-1", "", http.StatusBadRequest},
		{"watch negative z", "GET", "/v1/watch?app=cg&z=-1", "", http.StatusBadRequest},
		{"watch negative cusum-k", "GET", "/v1/watch?app=cg&cusum-k=-2", "", http.StatusBadRequest},
		{"watch NaN z", "GET", "/v1/watch?app=cg&z=NaN", "", http.StatusBadRequest},
		{"watch NaN min-share", "GET", "/v1/watch?app=cg&min-share=NaN", "", http.StatusBadRequest},
		{"watch bad min-runs", "GET", "/v1/watch?app=cg&min-runs=0", "", http.StatusBadRequest},
		{"watch bad np", "GET", "/v1/watch?app=cg&np=zero", "", http.StatusBadRequest},
		{"watch unstocked scale", "GET", "/v1/watch?app=cg&np=64", "", http.StatusNotFound},
		{"profiles invalid hash", "GET", "/v1/profiles/cg/4/zz", "", http.StatusBadRequest},
		{"profiles missing set", "GET", "/v1/profiles/cg/4/" + store.HashOf([]byte("missing")), "", http.StatusNotFound},
		{"profiles bad scale", "GET", "/v1/profiles/cg/four/" + hashes[0], "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var code int
		var resp []byte
		if tc.method == "POST" {
			code, resp = post(t, ts.URL+tc.path, "application/json", []byte(tc.body))
		} else {
			code, resp = get(t, ts.URL+tc.path)
		}
		if code != tc.code {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, resp, tc.code)
		}
	}
	_ = srv

	// An empty store behind a known app is 404, not 500.
	_, ts2 := newTestServer(t)
	if code, resp := get(t, ts2.URL+"/v1/watch?app=cg"); code != http.StatusNotFound {
		t.Errorf("watch over empty store: got %d (%s), want 404", code, resp)
	}
}

// TestStoreCorruptionSurfacesAs500: tampered stored bytes and a history
// log naming a missing set are server-side corruption — 500, never a
// 4xx blaming the client.
func TestStoreCorruptionSurfacesAs500(t *testing.T) {
	srv, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	set := encodeSets(t, srv.env.Engine, app, []int{4}, 1000)[4]
	if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, body)
	}
	hash := store.HashOf(set)

	// A history log naming a set that is not stored.
	histPath := filepath.Join(srv.env.Store.Root(), "cg", "4", "history.log")
	ghost := store.HashOf([]byte("never stored"))
	if err := os.WriteFile(histPath, []byte(hash+"\n"+ghost+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, resp := get(t, ts.URL+"/v1/watch?app=cg"); code != http.StatusInternalServerError {
		t.Fatalf("watch over corrupt history: got %d (%s), want 500", code, resp)
	}
	if err := os.WriteFile(histPath, []byte(hash+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Tampered content: the stored bytes no longer hash to their address.
	setPath := filepath.Join(srv.env.Store.Root(), "cg", "4", hash+".json")
	if err := os.WriteFile(setPath, []byte(`{"app":"cg","np":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, resp := get(t, ts.URL+"/v1/profiles/cg/4/"+hash); code != http.StatusInternalServerError {
		t.Fatalf("GET tampered set: got %d (%s), want 500", code, resp)
	}
	if code, resp := get(t, ts.URL+"/v1/watch?app=cg"); code != http.StatusInternalServerError {
		t.Fatalf("watch over tampered set: got %d (%s), want 500", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/detect", "application/json", []byte(`{"app":"cg","scales":[4]}`)); code != http.StatusInternalServerError {
		t.Fatalf("detect over tampered set: got %d (%s), want 500", code, resp)
	}
}
