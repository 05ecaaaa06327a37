package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/query"
	"scalana/internal/scales"
	"scalana/internal/store"
	"scalana/internal/synth"
	"scalana/internal/vm"

	scalana "scalana"
)

// newTestServer builds a server over a temp store with serial
// simulation (deterministic and CI-friendly on one CPU).
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, data
}

// encodeSets profiles an app at each scale and returns the wire bytes
// per scale — what a client would upload.
func encodeSets(t *testing.T, eng *scalana.Engine, app *scalana.App, nps []int, hz float64) map[int][]byte {
	t.Helper()
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = hz
	sets := make(map[int][]byte, len(nps))
	for _, np := range nps {
		out, err := eng.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg})
		if err != nil {
			t.Fatalf("profile %s np=%d: %v", app.Name, np, err)
		}
		ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
		data, err := prof.EncodeProfileSet(ps)
		if err != nil {
			t.Fatalf("encode np=%d: %v", np, err)
		}
		sets[np] = data
	}
	return sets
}

// offlineReport reproduces scalana-detect's -profiles code path in
// process: decode the wire bytes, assemble PPGs, detect, encode — the
// bytes the CLI would write with -json.
func offlineReport(t *testing.T, app *scalana.App, nps []int, sets map[int][]byte, dcfg detect.Config) []byte {
	t.Helper()
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	var runs []detect.ScaleRun
	for _, np := range nps {
		ps, err := prof.DecodeProfileSet(sets[np], graph)
		if err != nil {
			t.Fatalf("decode np=%d: %v", np, err)
		}
		pg, err := ppg.Build(graph, ps.Profiles)
		if err != nil {
			t.Fatalf("build PPG np=%d: %v", np, err)
		}
		runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
	}
	rep, err := scalana.DetectScalingLoss(runs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestServedDetectByteIdenticalSynthCase is the acceptance harness: a
// synth-corpus case is registered with the server, its profile sets are
// uploaded, and the served detect report must be byte-identical to the
// offline scalana-detect -json pipeline over the same wire bytes.
func TestServedDetectByteIdenticalSynthCase(t *testing.T) {
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Cases[0]
	app := c.App()
	nps := []int{c.MinNP, c.MinNP * 2}

	srv, ts := newTestServer(t)
	eng := scalana.NewEngine()
	sets := encodeSets(t, eng, app, nps, 1000)
	offline := offlineReport(t, app, nps, sets, detect.DefaultConfig())

	// Register the case's source, then upload its profile sets.
	appBody, _ := json.Marshal(appUploadJSON{Name: app.Name, Source: app.Source, MinNP: app.MinNP})
	if code, body := post(t, ts.URL+"/v1/apps", "application/json", appBody); code != http.StatusCreated {
		t.Fatalf("register app: %d %s", code, body)
	}
	for _, np := range nps {
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", sets[np]); code != http.StatusCreated {
			t.Fatalf("upload np=%d: %d %s", np, code, body)
		}
	}

	req, _ := json.Marshal(detectRequest{App: app.Name, Scales: nps})
	code, served := post(t, ts.URL+"/v1/detect", "application/json", req)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, served)
	}
	if !bytes.Equal(served, offline) {
		t.Fatalf("served report differs from offline scalana-detect -json output\nserved %d bytes, offline %d bytes", len(served), len(offline))
	}

	// Omitting scales selects every stored scale ascending — same report.
	req2, _ := json.Marshal(detectRequest{App: app.Name})
	if code, served2 := post(t, ts.URL+"/v1/detect", "application/json", req2); code != http.StatusOK || !bytes.Equal(served2, served) {
		t.Fatalf("detect without scales: %d, identical=%t", code, bytes.Equal(served2, served))
	}

	// The shared engine compiled the uploaded app once: registration,
	// two uploads, and two detect queries all hit one cache entry.
	if cs := srv.env.Engine.CacheStats(); cs.Misses != 1 {
		t.Fatalf("expected one compile miss across uploads+queries, got %+v", cs)
	}
}

// TestStoredBytesByteIdentical uploads the committed cg fixtures over
// HTTP and reads them back unchanged, and checks the served detect
// report against the offline pipeline over those same fixtures.
func TestStoredBytesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	sets := map[int][]byte{}
	for _, np := range []int{4, 8} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("cg.%d.json", np)))
		if err != nil {
			t.Fatal(err)
		}
		sets[np] = data
		code, body := post(t, ts.URL+"/v1/profiles", "application/json", data)
		if code != http.StatusCreated {
			t.Fatalf("upload cg.%d: %d %s", np, code, body)
		}
		var res struct {
			store.Key
			Size int64 `json:"size"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Hash != store.HashOf(data) || res.NP != np || res.App != "cg" {
			t.Fatalf("upload result %+v", res)
		}
		code, back := get(t, fmt.Sprintf("%s/v1/profiles/cg/%d/%s", ts.URL, np, res.Hash))
		if code != http.StatusOK || !bytes.Equal(back, data) {
			t.Fatalf("GET stored cg.%d: %d, identical=%t", np, code, bytes.Equal(back, data))
		}
	}

	offline := offlineReport(t, app, []int{4, 8}, sets, detect.DefaultConfig())
	req, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{4, 8}})
	code, served := post(t, ts.URL+"/v1/detect", "application/json", req)
	if code != http.StatusOK || !bytes.Equal(served, offline) {
		t.Fatalf("served cg report: %d, identical=%t", code, bytes.Equal(served, offline))
	}
}

// TestCoalescing is the acceptance test for request dedup, over every
// query endpoint: two concurrent identical requests must trigger exactly
// one computation. The computeGate hook holds the first computation
// open until the second request has verifiably joined the flight. A
// third request after the flight drained recomputes (the flight group
// dedups in-flight work, it is not a response cache) and must serve the
// same bytes — the determinism contract.
func TestCoalescing(t *testing.T) {
	detectBody, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{4, 8}, Simulate: true})
	for _, tc := range []struct {
		name   string
		path   string
		body   []byte // nil = GET
		stored bool   // the query reads stored sets
		count  func(*Server) *flightCount
		stats  func(Stats) (computes, coalesced int64)
	}{
		{"detect", "/v1/detect", detectBody, false, func(s *Server) *flightCount { return &s.detects },
			func(st Stats) (int64, int64) { return st.DetectComputes, st.DetectCoalesced }},
		{"sweep", "/v1/sweep?app=cg", nil, true, func(s *Server) *flightCount { return &s.sweeps },
			func(st Stats) (int64, int64) { return st.SweepComputes, st.SweepCoalesced }},
		{"watch", "/v1/watch?app=cg", nil, true, func(s *Server) *flightCount { return &s.watches },
			func(st Stats) (int64, int64) { return st.WatchComputes, st.WatchCoalesced }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			if tc.stored {
				for np, set := range encodeSets(t, srv.env.Engine, scalana.GetApp("cg"), []int{4, 8}, 1000) {
					if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
						t.Fatalf("upload np=%d: %d %s", np, code, body)
					}
				}
			}
			gate := make(chan struct{})
			srv.computeGate = gate
			request := func() (int, []byte) {
				if tc.body != nil {
					return post(t, ts.URL+tc.path, "application/json", tc.body)
				}
				return get(t, ts.URL+tc.path)
			}
			type result struct {
				code int
				data []byte
			}
			results := make(chan result, 2)
			var wg sync.WaitGroup
			launch := func() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, data := request()
					results <- result{code, data}
				}()
			}
			waitFor := func(desc string, n *atomic.Int64) {
				t.Helper()
				for i := 0; i < 1000; i++ {
					if n.Load() == 1 {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				t.Fatalf("timed out waiting for %s", desc)
			}

			c := tc.count(srv)
			launch() // first request starts computing and blocks on the gate
			waitFor("first compute to start", &c.computes)
			launch() // second identical request must join, not compute
			waitFor("second request to coalesce", &c.coalesced)
			close(gate)
			wg.Wait()
			close(results)

			var bodies [][]byte
			for r := range results {
				if r.code != http.StatusOK {
					t.Fatalf("%s: %d %s", tc.name, r.code, r.data)
				}
				bodies = append(bodies, r.data)
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatal("coalesced responses differ")
			}
			if computes, coalesced := tc.stats(srv.Stats()); computes != 1 || coalesced != 1 {
				t.Fatalf("expected one computation and one coalesced request, got %d and %d", computes, coalesced)
			}
			if st := srv.Stats(); st.DetectComputes+st.SweepComputes+st.WatchComputes != 1 {
				t.Fatalf("another endpoint's counter moved: %+v", st)
			}

			code, third := request()
			if code != http.StatusOK || !bytes.Equal(third, bodies[0]) {
				t.Fatalf("post-flight request: %d, identical=%t", code, bytes.Equal(third, bodies[0]))
			}
			if computes, coalesced := tc.stats(srv.Stats()); computes != 2 || coalesced != 1 {
				t.Fatalf("expected a second computation after the flight drained, got %d computes, %d coalesced", computes, coalesced)
			}
		})
	}
}

// TestSimulateMatchesStored: simulate-mode detect over (app, scales)
// equals stored-mode detect over uploads produced at the same hz/seed.
func TestSimulateMatchesStored(t *testing.T) {
	_, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	nps := []int{4, 8}
	sets := encodeSets(t, scalana.NewEngine(), app, nps, 1000)
	for _, np := range nps {
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", sets[np]); code != http.StatusCreated {
			t.Fatalf("upload np=%d: %d %s", np, code, body)
		}
	}
	storedReq, _ := json.Marshal(detectRequest{App: "cg", Scales: nps})
	simReq, _ := json.Marshal(detectRequest{App: "cg", Scales: nps, Simulate: true})
	codeA, stored := post(t, ts.URL+"/v1/detect", "application/json", storedReq)
	codeB, simulated := post(t, ts.URL+"/v1/detect", "application/json", simReq)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("detect: stored=%d simulated=%d", codeA, codeB)
	}
	if !bytes.Equal(stored, simulated) {
		t.Fatal("simulate-mode report differs from stored-mode report for identical inputs")
	}
}

func TestDetectValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		req  detectRequest
		code int
	}{
		{"unknown app", detectRequest{App: "no-such-app", Scales: []int{4}}, http.StatusNotFound},
		{"duplicate scales", detectRequest{App: "cg", Scales: []int{4, 4}}, http.StatusBadRequest},
		{"zero scale", detectRequest{App: "cg", Scales: []int{0}}, http.StatusBadRequest},
		{"nothing stored", detectRequest{App: "cg", Scales: []int{4}}, http.StatusNotFound},
		{"empty store, no scales", detectRequest{App: "cg"}, http.StatusNotFound},
		{"simulate needs scales", detectRequest{App: "cg", Simulate: true}, http.StatusBadRequest},
		{"simulate below MinNP", detectRequest{App: "cg", Simulate: true, Scales: []int{1, 4}}, http.StatusBadRequest},
		{"scales and hashes", detectRequest{App: "cg", Scales: []int{4}, Hashes: []string{"ab"}}, http.StatusBadRequest},
		{"simulate with hashes", detectRequest{App: "cg", Simulate: true, Scales: []int{4}, Hashes: []string{"ab"}}, http.StatusBadRequest},
		// A negative topk used to panic inside the computation and leak its
		// flight, so the repeat hung (TestPanicReleasesTheFlight).
		{"negative topk", detectRequest{App: "cg", Config: detectConfigJSON{TopK: -1}}, http.StatusBadRequest},
		{"simulate negative topk", detectRequest{App: "cg", Simulate: true, Scales: []int{4, 8}, Config: detectConfigJSON{TopK: -1}}, http.StatusBadRequest},
		{"simulate negative topk again", detectRequest{App: "cg", Simulate: true, Scales: []int{4, 8}, Config: detectConfigJSON{TopK: -1}}, http.StatusBadRequest},
		// Only a zero hz is the server's rate; a negative one is refused,
		// not replaced.
		{"simulate negative hz", detectRequest{App: "cg", Simulate: true, Scales: []int{4, 8}, SampleHz: -5}, http.StatusBadRequest},
		{"simulate tiny negative hz", detectRequest{App: "cg", Simulate: true, Scales: []int{4, 8}, SampleHz: -1e-300}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		if code, resp := post(t, ts.URL+"/v1/detect", "application/json", body); code != tc.code {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, resp, tc.code)
		}
	}
}

func TestAmbiguousScaleNeedsHash(t *testing.T) {
	srv, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	nps := []int{4}
	// Two different uploads for one (app, np): different sampling rates.
	a := encodeSets(t, srv.env.Engine, app, nps, 1000)[4]
	b := encodeSets(t, srv.env.Engine, app, nps, 500)[4]
	if bytes.Equal(a, b) {
		t.Fatal("test needs two distinct profile sets")
	}
	for _, data := range [][]byte{a, b} {
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", data); code != http.StatusCreated {
			t.Fatalf("upload: %d %s", code, body)
		}
	}
	req, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{4}})
	if code, _ := post(t, ts.URL+"/v1/detect", "application/json", req); code != http.StatusConflict {
		t.Fatalf("ambiguous scale: got %d, want 409", code)
	}
	// Naming the hash (a unique prefix) disambiguates.
	req2, _ := json.Marshal(detectRequest{App: "cg", Hashes: []string{store.HashOf(a)[:16]}})
	if code, body := post(t, ts.URL+"/v1/detect", "application/json", req2); code != http.StatusOK {
		t.Fatalf("hash-selected detect: %d %s", code, body)
	}
}

func TestUploadValidation(t *testing.T) {
	srv, ts := newTestServer(t)
	if code, _ := post(t, ts.URL+"/v1/profiles", "application/json", []byte(`{"app":"no-such-app","np":4}`)); code != http.StatusNotFound {
		t.Fatalf("unknown app upload: got %d, want 404", code)
	}
	if code, _ := post(t, ts.URL+"/v1/profiles", "application/json", []byte(`not json`)); code != http.StatusBadRequest {
		t.Fatalf("malformed upload: got %d, want 400", code)
	}
	// Valid envelope, but profiles naming vertices cg does not have.
	bad := []byte(`{"app":"cg","np":4,"elapsed":1,"profiles":[{"rank":0,"np":4,"vertex":{"bogus@1":{}},"comm":[],"indirect":[]}]}`)
	if code, _ := post(t, ts.URL+"/v1/profiles", "application/json", bad); code != http.StatusBadRequest {
		t.Fatalf("mismatched profile upload: got %d, want 400", code)
	}
	// Sets that decode but that ppg.Build could never assemble. The store
	// is append-only, so one of these landing would fail every later
	// watch of its scale.
	rank := func(r, np int) string {
		return fmt.Sprintf(`{"rank":%d,"np":%d,"vertex":{},"comm":[],"indirect":[]}`, r, np)
	}
	for name, set := range map[string]string{
		"no profiles":            `{"app":"cg","np":4,"elapsed":1,"profiles":[]}`,
		"null profiles":          `{"app":"cg","np":4,"elapsed":1,"profiles":null}`,
		"wrong count and ranks":  `{"app":"cg","np":4,"elapsed":1,"profiles":[` + rank(0, 8) + "," + rank(0, 8) + "," + rank(9, 8) + "," + rank(1, 8) + `]}`,
		"duplicate rank":         `{"app":"cg","np":2,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(0, 2) + `]}`,
		"rank out of range":      `{"app":"cg","np":2,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(2, 2) + `]}`,
		"per-rank np disagrees":  `{"app":"cg","np":2,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(1, 4) + `]}`,
		"envelope np mislabels":  `{"app":"cg","np":4,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(1, 2) + `]}`,
		"repeated envelope np":   `{"app":"cg","np":2,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(1, 2) + `],"np":4}`,
		"repeated envelope app":  `{"app":"cg","np":2,"elapsed":1,"profiles":[` + rank(0, 2) + "," + rank(1, 2) + `],"APP":"no-such-app"}`,
		"mistyped envelope np":   `{"app":"cg","np":"4"}`,
		"fractional envelope np": `{"app":"cg","np":4.0}`,
	} {
		code, body := post(t, ts.URL+"/v1/profiles", "application/json", []byte(set))
		want := http.StatusBadRequest
		if name == "repeated envelope app" {
			want = http.StatusNotFound // last wins, as in the full decode
		}
		if code != want {
			t.Errorf("%s: got %d %s, want %d", name, code, body, want)
		}
	}
	// Nothing invalid may have landed in the store.
	if code, body := get(t, ts.URL+"/v1/profiles"); code != http.StatusOK || !bytes.Contains(body, []byte(`"sets": null`)) {
		t.Fatalf("store not empty after rejected uploads: %d %s", code, body)
	}
	// A later valid upload and a watch of its scale still work: no
	// rejected set poisoned cg's history.
	for _, set := range encodeSets(t, srv.env.Engine, scalana.GetApp("cg"), []int{4}, 1000) {
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", set); code != http.StatusCreated {
			t.Fatalf("valid upload after rejected ones: %d %s", code, body)
		}
	}
	if code, body := get(t, ts.URL+"/v1/watch?app=cg"); code != http.StatusOK {
		t.Fatalf("watch after rejected uploads: %d %s", code, body)
	}
}

func TestAppUploadValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// Bundled name collision.
	body, _ := json.Marshal(appUploadJSON{Name: "cg", Source: "def main() {}"})
	if code, _ := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusConflict {
		t.Fatal("bundled-name registration did not 409")
	}
	// Bad source fails compilation.
	body, _ = json.Marshal(appUploadJSON{Name: "broken", Source: "def ("})
	if code, _ := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusBadRequest {
		t.Fatal("uncompilable source did not 400")
	}
	// Re-registering identical source is idempotent; different source conflicts.
	src := scalana.GetApp("cg").Source
	body, _ = json.Marshal(appUploadJSON{Name: "cg-copy", Source: src, MinNP: 2})
	if code, _ := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusCreated {
		t.Fatal("first registration failed")
	}
	if code, _ := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusOK {
		t.Fatal("idempotent re-registration failed")
	}
	body2, _ := json.Marshal(appUploadJSON{Name: "cg-copy", Source: src + "\n", MinNP: 2})
	if code, _ := post(t, ts.URL+"/v1/apps", "application/json", body2); code != http.StatusConflict {
		t.Fatal("conflicting re-registration did not 409")
	}
}

// TestRunawayRecursionIsAnErrorResponse: an uploaded program that recurses
// without bound used to overflow the host stack and take the server down.
// A simulated detect answers with the rank's error on every request, and
// the server must still be there for the next one.
func TestRunawayRecursionIsAnErrorResponse(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(appUploadJSON{Name: "runaway", Source: "func f(n) { return f(n + 1); }\nfunc main() { f(0); }\n", MinNP: 2})
	if code, resp := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusCreated {
		t.Fatalf("register app: %d %s", code, resp)
	}
	const want = "exceeds the call depth limit"
	for i := 0; i < 2; i++ {
		if code, resp := simulatedDetect(t, ts, "runaway"); code < 400 || !bytes.Contains(resp, []byte(want)) {
			t.Errorf("simulated detect of a runaway recursion, request %d: %d %s, want an error naming the depth limit", i, code, resp)
		}
	}
	if code, resp := simulatedDetect(t, ts, "cg"); code != http.StatusOK {
		t.Errorf("next request after the failed ones: %d %s", code, resp)
	}
}

// TestRunawayLoopIsAnErrorResponse: an uploaded program that never ends
// used to hold its worker slot for ever. The step budget fails its rank
// with the same positioned error on every request, and the server is
// there for the next one.
func TestRunawayLoopIsAnErrorResponse(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(appUploadJSON{Name: "spin", Source: "func main() {\n\twhile (1) { }\n}\n", MinNP: 2})
	if code, resp := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusCreated {
		t.Fatalf("register app: %d %s", code, resp)
	}
	want := []byte(fmt.Sprintf("rank 0: spin.mp:2:2: rank exceeds the step budget of %d backward jumps and calls", vm.MaxSteps))
	for i := 0; i < 3; i++ {
		if code, resp := simulatedDetect(t, ts, "spin"); code < 400 || !bytes.Contains(resp, want) {
			t.Errorf("simulated detect of a program that never ends, request %d: %d %s, want an error with %q", i, code, resp, want)
		}
	}
	if code, resp := simulatedDetect(t, ts, "cg"); code != http.StatusOK {
		t.Errorf("next request after the failed ones: %d %s", code, resp)
	}
}

// TestHugeAllocIsAnErrorResponse: an uploaded alloc(1e12) used to end the
// process with "fatal error: runtime: out of memory", and an alloc in a
// loop to grow until the host did. A rank's array budget fails it with the
// same positioned error on every request, and the server is there for the
// next one.
func TestHugeAllocIsAnErrorResponse(t *testing.T) {
	_, ts := newTestServer(t)
	for name, c := range map[string]struct{ src, at string }{
		"big":  {"func main() {\n\tvar a = alloc(1000000000000);\n}\n", "big.mp:2:10: alloc of 1e+12"},
		"grow": {"func main() {\n\twhile (1) {\n\t\tvar a = alloc(1000);\n\t}\n}\n", "grow.mp:3:11: alloc of 1000"},
	} {
		body, _ := json.Marshal(appUploadJSON{Name: name, Source: c.src, MinNP: 2})
		if code, resp := post(t, ts.URL+"/v1/apps", "application/json", body); code != http.StatusCreated {
			t.Fatalf("register app: %d %s", code, resp)
		}
		want := []byte(fmt.Sprintf("rank 0: %s elements exceeds what is left of the rank's array budget of %d", c.at, vm.MaxArrayElems))
		for i := 0; i < 3; i++ {
			if code, resp := simulatedDetect(t, ts, name); code != http.StatusInternalServerError || !bytes.Contains(resp, want) {
				t.Errorf("simulated detect of %s, request %d: %d %s, want a 500 with %q", name, i, code, resp, want)
			}
		}
	}
	if code, resp := simulatedDetect(t, ts, "cg"); code != http.StatusOK {
		t.Errorf("next request after the failed ones: %d %s", code, resp)
	}
}

// simulatedDetect posts a simulated detect of app at np 2 and 4.
func simulatedDetect(t *testing.T, ts *httptest.Server, app string) (int, []byte) {
	t.Helper()
	req, _ := json.Marshal(detectRequest{App: app, Simulate: true, Scales: []int{2, 4}})
	return post(t, ts.URL+"/v1/detect", "application/json", req)
}

func TestSweepEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	app := scalana.GetApp("cg")
	nps := []int{4, 8}
	sets := encodeSets(t, srv.env.Engine, app, nps, 1000)
	for _, np := range nps {
		post(t, ts.URL+"/v1/profiles", "application/json", sets[np])
	}
	code, body := get(t, ts.URL+"/v1/sweep?app=cg")
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var resp query.SweepReport
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 2 || resp.Runs[0].NP != 4 || resp.Runs[1].NP != 8 {
		t.Fatalf("sweep runs %+v", resp.Runs)
	}
	if resp.Runs[0].Speedup != 1 || resp.Runs[0].Efficiency != 1 {
		t.Fatalf("base scale not normalized: %+v", resp.Runs[0])
	}
	if resp.Model == nil {
		t.Fatal("sweep over two scales has no fitted model")
	}
	// Identical query twice: deterministic bytes.
	_, body2 := get(t, ts.URL+"/v1/sweep?app=cg")
	if !bytes.Equal(body, body2) {
		t.Fatal("sweep response is not deterministic")
	}
	if code, _ := get(t, ts.URL+"/v1/sweep?app=cg&scales=4,4"); code != http.StatusBadRequest {
		t.Fatal("duplicate scales in sweep query did not 400")
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"baseline_samples", "sample_ingests", "graph_decodes", "graph_rereads", "cache_bytes", "cache_evictions"} {
		if !bytes.Contains(body, []byte(`"`+field+`"`)) {
			t.Errorf("stats lack %q: %s", field, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/apps"); code != http.StatusOK {
		t.Fatal("apps listing failed")
	}
}

// TestStatsAnswersTheStoreError: a store that can no longer be listed
// used to give GET /v1/stats 200 with "stored_sets": 0, and GET
// /v1/profiles a 404, as if the client had named content that is not
// stored. Both routes now answer 500 with the error the listing gave.
func TestStatsAnswersTheStoreError(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := os.RemoveAll(srv.env.Store.Root()); err != nil {
		t.Fatal(err)
	}
	code, listed := get(t, ts.URL+"/v1/profiles")
	var want struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(listed, &want); err != nil || !strings.Contains(want.Error, "store: list: ") {
		t.Fatalf("GET /v1/profiles over a removed store: %s (%v), want a store listing error", listed, err)
	}
	if code != http.StatusInternalServerError {
		t.Errorf("GET /v1/profiles over a removed store: %d, want 500", code)
	}
	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusInternalServerError || !bytes.Contains(body, []byte(want.Error)) {
		t.Errorf("GET /v1/stats over a removed store: %d %s, want 500 naming %q", code, body, want.Error)
	}
}

// TestNoCommRoute: the service has no communication-matrix query.
// GET /v1/comm answers as a route that never existed does, and /v1/stats
// counts no comm computes.
func TestNoCommRoute(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/comm?app=cg&np=4")
	unknownCode, unknownBody := get(t, ts.URL+"/v1/nosuch?app=cg&np=4")
	if code != http.StatusNotFound || code != unknownCode || !bytes.Equal(body, unknownBody) {
		t.Errorf("GET /v1/comm: %d %q, want an unknown route's %d %q", code, body, unknownCode, unknownBody)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	for _, field := range []string{"comm_computes", "comm_coalesced"} {
		if bytes.Contains(stats, []byte(`"`+field+`"`)) {
			t.Errorf("stats still have %q: %s", field, stats)
		}
	}
}

// TestNPAboveTheCapIsABadRequest: a 60-byte request used to ask the
// simulator for a billion ranks. The two routes that take an np from the
// client answer 400 naming ppg.MaxNP, and the next request is served.
func TestNPAboveTheCapIsABadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	want := []byte(fmt.Sprintf("exceeds the service limit of %d ranks", ppg.MaxNP))
	detectReq, _ := json.Marshal(detectRequest{App: "cg", Simulate: true, Scales: []int{4, 1000000000}})
	envelope := []byte(fmt.Sprintf(`{"app":"cg","np":%d,"elapsed":1,"profiles":[{"rank":0,"np":%d}]}`, ppg.MaxNP+1, ppg.MaxNP+1))
	for name, do := range map[string]func() (int, []byte){
		"simulated detect": func() (int, []byte) { return post(t, ts.URL+"/v1/detect", "application/json", detectReq) },
		"upload":           func() (int, []byte) { return post(t, ts.URL+"/v1/profiles", "application/json", envelope) },
	} {
		if code, body := do(); code != http.StatusBadRequest || !bytes.Contains(body, want) {
			t.Errorf("%s above the cap: %d %s, want 400 naming the limit", name, code, body)
		}
	}
	// At the cap an upload is refused for what it is — a set too short to
	// hold that many ranks — before anything is sized for it.
	atCap := []byte(fmt.Sprintf(`{"app":"cg","np":%d,"elapsed":1,"profiles":[{"rank":0,"np":%d}]}`, ppg.MaxNP, ppg.MaxNP))
	if code, body := post(t, ts.URL+"/v1/profiles", "application/json", atCap); code != http.StatusBadRequest || !bytes.Contains(body, []byte("the most ranks the input could hold")) {
		t.Errorf("upload at the cap with one rank: %d %s", code, body)
	}
	if code, body := simulatedDetect(t, ts, "cg"); code != http.StatusOK {
		t.Errorf("next request after the refused ones: %d %s", code, body)
	}
}

// TestUploadedAppsAreCapped: every registered app keeps its compiled graph
// for the life of the server. Past MaxApps a new name is a 507 naming the
// limit, while an identical re-upload still answers 200 "exists".
func TestUploadedAppsAreCapped(t *testing.T) {
	_, ts := newTestServer(t)
	upload := func(i int) (int, []byte) {
		body, _ := json.Marshal(appUploadJSON{Name: fmt.Sprintf("app%d", i), Source: "func main() { mpi_barrier(); }\n", MinNP: 2})
		return post(t, ts.URL+"/v1/apps", "application/json", body)
	}
	for i := 0; i < MaxApps; i++ {
		if code, body := upload(i); code != http.StatusCreated {
			t.Fatalf("app %d: %d %s", i, code, body)
		}
	}
	want := []byte(fmt.Sprintf("limit of %d uploaded apps", MaxApps))
	if code, body := upload(MaxApps); code != http.StatusInsufficientStorage || !bytes.Contains(body, want) {
		t.Errorf("app past the cap: %d %s, want 507 naming the limit", code, body)
	}
	if code, body := upload(0); code != http.StatusOK || !bytes.Contains(body, []byte(`"exists"`)) {
		t.Errorf("re-upload of a registered app at the cap: %d %s, want 200 exists", code, body)
	}
	_, body := get(t, ts.URL+"/v1/apps")
	var list struct{ Uploaded []struct{ Name string } }
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Uploaded) != MaxApps {
		t.Errorf("GET /v1/apps lists %d uploaded apps, want %d", len(list.Uploaded), MaxApps)
	}
}

// TestScaleCountIsCapped: a query naming more than scales.MaxScales
// scales or hashes is a 400 naming the limit, answered before anything is
// simulated or resolved — it used to sweep every scale it named under one
// gate slot.
func TestScaleCountIsCapped(t *testing.T) {
	srv, ts := newTestServer(t)
	nps := make([]int, scales.MaxScales+1)
	list := make([]string, len(nps))
	hashes := make([]string, len(nps))
	for i := range nps {
		nps[i] = 4 + i
		list[i] = fmt.Sprint(nps[i])
		hashes[i] = fmt.Sprintf("%02x", i)
	}
	want := []byte(fmt.Sprintf("at most %d", scales.MaxScales))
	simulate, _ := json.Marshal(detectRequest{App: "cg", Simulate: true, Scales: nps})
	stored, _ := json.Marshal(detectRequest{App: "cg", Hashes: hashes})
	for name, do := range map[string]func() (int, []byte){
		"simulated detect": func() (int, []byte) { return post(t, ts.URL+"/v1/detect", "application/json", simulate) },
		"detect by hash":   func() (int, []byte) { return post(t, ts.URL+"/v1/detect", "application/json", stored) },
		"sweep":            func() (int, []byte) { return get(t, ts.URL+"/v1/sweep?app=cg&scales="+strings.Join(list, ",")) },
	} {
		if code, body := do(); code != http.StatusBadRequest || !bytes.Contains(body, want) {
			t.Errorf("%s with %d scales: %d %s, want 400 naming the limit", name, len(nps), code, body)
		}
	}
	if st := srv.Stats(); st.DetectComputes != 0 {
		t.Errorf("detect_computes = %d after refused requests, want 0", st.DetectComputes)
	}
}

// TestCorruptAfterCacheIsA500: a detect reads the graphs of cg [4,8] from
// the cache once it is warm, yet a byte flipped in either stored file
// afterwards is still
// the content-hash 500 it was when every detect decoded every scale, and
// so is the graph-held np=8 file cut short by a byte, grown by one, or
// flipped in its last byte. Put back, the same bytes answer from the cache
// again, each time.
func TestCorruptAfterCacheIsA500(t *testing.T) {
	srv, ts := newTestServer(t)
	paths := map[int]string{}
	for _, np := range []int{4, 8} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("cg.%d.json", np)))
		if err != nil {
			t.Fatal(err)
		}
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", data); code != http.StatusCreated {
			t.Fatalf("upload cg.%d: %d %s", np, code, body)
		}
		paths[np] = filepath.Join(srv.env.Store.Root(), "cg", fmt.Sprint(np), store.HashOf(data)+".json")
	}
	req, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{4, 8}})
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts.URL+"/v1/detect", "application/json", req); code != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, code, body)
		}
	}
	cached := func(when string) {
		t.Helper()
		if st := srv.Stats(); st.SampleIngests != 0 || st.BaselineSamples != 0 || st.GraphDecodes != 2 {
			t.Fatalf("%s: %d ingestions, %d samples cached and %d graphs decoded, want 0, 0 and 2", when, st.SampleIngests, st.BaselineSamples, st.GraphDecodes)
		}
	}
	cached("two detects over cg [4,8]")
	want := []byte("content hash mismatch")
	flip := func(i func([]byte) int) func([]byte) []byte {
		return func(data []byte) []byte {
			data = bytes.Clone(data)
			data[i(data)] ^= 1
			return data
		}
	}
	middle := flip(func(data []byte) int { return len(data) / 2 })
	for _, tc := range []struct {
		np     int
		name   string
		mutate func([]byte) []byte
	}{
		{4, "a middle byte flipped", middle},
		{8, "a middle byte flipped", middle},
		{8, "one byte short", func(data []byte) []byte { return data[:len(data)-1] }},
		{8, "one byte long", func(data []byte) []byte { return append(bytes.Clone(data), ' ') }},
		{8, "the last byte flipped", flip(func(data []byte) int { return len(data) - 1 })},
	} {
		data, err := os.ReadFile(paths[tc.np])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[tc.np], tc.mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, body := post(t, ts.URL+"/v1/detect", "application/json", req); code != http.StatusInternalServerError || !bytes.Contains(body, want) {
			t.Errorf("warm detect over np=%d with %s: %d %s, want 500 naming %s", tc.np, tc.name, code, body, want)
		}
		if err := os.WriteFile(paths[tc.np], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if code, body := post(t, ts.URL+"/v1/detect", "application/json", req); code != http.StatusOK {
			t.Errorf("detect with np=%d put back after %s: %d %s", tc.np, tc.name, code, body)
		}
		cached(fmt.Sprintf("np=%d put back after %s", tc.np, tc.name))
	}
}

// TestRemovedAfterCacheAnswersAsUncached: a stored set removed after the
// cache took its graph (np=4 or np=8) gets the status and
// body a server with an empty cache gives over the same store.
func TestRemovedAfterCacheAnswersAsUncached(t *testing.T) {
	req, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{4, 8}})
	for _, np := range []int{4, 8} {
		srv, ts := newTestServer(t)
		sets := encodeSets(t, srv.env.Engine, scalana.GetApp("cg"), []int{4, 8}, 1000)
		for _, n := range []int{4, 8} {
			if code, body := post(t, ts.URL+"/v1/profiles", "application/json", sets[n]); code != http.StatusCreated {
				t.Fatalf("upload np=%d: %d %s", n, code, body)
			}
		}
		if code, body := post(t, ts.URL+"/v1/detect", "application/json", req); code != http.StatusOK {
			t.Fatalf("detect: %d %s", code, body)
		}
		if err := os.Remove(filepath.Join(srv.env.Store.Root(), "cg", fmt.Sprint(np), store.HashOf(sets[np])+".json")); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{Store: srv.env.Store, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		uncached := httptest.NewServer(fresh.Handler())
		wantCode, wantBody := post(t, uncached.URL+"/v1/detect", "application/json", req)
		uncached.Close()
		code, body := post(t, ts.URL+"/v1/detect", "application/json", req)
		if code != http.StatusNotFound || code != wantCode || !bytes.Equal(body, wantBody) {
			t.Errorf("np=%d removed after caching: %d %s; an empty cache answers %d %s", np, code, body, wantCode, wantBody)
		}
	}
}

// TestSampleCacheIsBoundedByTheStore: the cache that watches and stored
// detects share holds one sample and one graph a stored set at most, and a
// second round of queries over an unchanged store ingests and decodes
// nothing. Each round's queries run at once, so several goroutines fill
// and read the cache together.
func TestSampleCacheIsBoundedByTheStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	call := func(method, target string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	nps := []int{4, 8, 16}
	sets := encodeSets(t, srv.env.Engine, scalana.GetApp("cg"), nps, 1000)
	for _, np := range nps {
		if code, body := call("POST", "/v1/profiles", sets[np]); code != http.StatusCreated {
			t.Fatalf("upload np=%d: %d %s", np, code, body)
		}
	}
	type request struct {
		method, target string
		body           []byte
	}
	detectReq, _ := json.Marshal(detectRequest{App: "cg"})
	reqs := []request{{"POST", "/v1/detect", detectReq}}
	for _, np := range nps {
		reqs = append(reqs, request{"GET", fmt.Sprintf("/v1/watch?app=cg&np=%d", np), nil})
	}
	var ingests, decodes int64
	for round := 1; round <= 2; round++ {
		var wg sync.WaitGroup
		for _, r := range reqs {
			wg.Add(1)
			go func(r request) {
				defer wg.Done()
				if code, resp := call(r.method, r.target, r.body); code != http.StatusOK {
					t.Errorf("round %d: %s %s: %d %s", round, r.method, r.target, code, resp)
				}
			}(r)
		}
		wg.Wait()
		stats := srv.Stats()
		// Every watch reads every scale, so the bound is met exactly.
		if stats.BaselineSamples != stats.StoredSets {
			t.Errorf("round %d: %d samples cached over %d stored sets, want one a set", round, stats.BaselineSamples, stats.StoredSets)
		}
		if round == 2 && (stats.SampleIngests != ingests || stats.GraphDecodes != decodes) {
			t.Errorf("round 2 over an unchanged store ingested %d samples and decoded %d graphs, want 0 and 0", stats.SampleIngests-ingests, stats.GraphDecodes-decodes)
		}
		ingests, decodes = stats.SampleIngests, stats.GraphDecodes
	}
}

// TestMisfiledSetIsA500OnEveryRoute: the np=4 set copied into cg/16/ (its
// content hash still verifies) used to make POST /v1/detect fit a 4-rank
// run as if it had 16 and answer 200 with a cause. Detect, sweep and watch
// now give the same answer: the store is corrupt.
func TestMisfiledSetIsA500OnEveryRoute(t *testing.T) {
	srv, ts := newTestServer(t)
	sets := encodeSets(t, srv.env.Engine, scalana.GetApp("cg"), []int{4, 8}, 1000)
	for _, np := range []int{4, 8} {
		if code, body := post(t, ts.URL+"/v1/profiles", "application/json", sets[np]); code != http.StatusCreated {
			t.Fatalf("upload np=%d: %d %s", np, code, body)
		}
	}
	dir := filepath.Join(srv.env.Store.Root(), "cg", "16")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, store.HashOf(sets[4])+".json"), sets[4], 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("decodes to np=4: store corrupt")
	req, _ := json.Marshal(detectRequest{App: "cg", Scales: []int{8, 16}})
	for name, do := range map[string]func() (int, []byte){
		"detect": func() (int, []byte) { return post(t, ts.URL+"/v1/detect", "application/json", req) },
		"sweep":  func() (int, []byte) { return get(t, ts.URL+"/v1/sweep?app=cg&scales=8,16") },
		"watch":  func() (int, []byte) { return get(t, ts.URL+"/v1/watch?app=cg&np=16") },
	} {
		if code, body := do(); code != http.StatusInternalServerError || !bytes.Contains(body, want) {
			t.Errorf("%s over a misfiled set: %d %s, want 500 %s", name, code, body, want)
		}
	}
}

// TestNewRejectsBadRate: a NaN, infinite or negative SampleHz is an
// error (scalana-serve -hz exits 1); zero is the 1000 Hz default.
func TestNewRejectsBadRate(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, hz := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := New(Config{Store: st, SampleHz: hz}); err == nil {
			t.Errorf("New with SampleHz %g should error", hz)
		}
	}
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.SampleHz != 1000 {
		t.Errorf("New with SampleHz 0 runs at %g Hz, want 1000", srv.cfg.SampleHz)
	}
}
