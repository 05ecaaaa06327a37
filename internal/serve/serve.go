// Package serve implements detection-as-a-service: the HTTP core behind
// cmd/scalana-serve. The paper's four-step workflow (profile → build
// PPG → detect → report, §V) is exactly a request/response shape, and a
// production deployment runs it continuously against many applications
// at many scales — so profile sets persist in a content-addressed store
// (internal/store), one scalana.Engine is shared across every request
// (PSG and bytecode compilation amortize across uploads of the same
// app), simulation work is bounded by a worker gate sized by the
// SweepConfig.Parallelism knob, and concurrent identical queries
// coalesce into one computation (single-flight on the query plan's key).
// The detect, sweep, comm and watch endpoints parse a request into an
// internal/query query and write the plan's canonical bytes.
//
// Endpoints (all JSON):
//
//	GET  /healthz                         liveness
//	GET  /v1/stats                        counters: uploads, computes, coalescing, compile cache
//	GET  /v1/apps                         bundled + uploaded application names
//	POST /v1/apps                         register an ad-hoc app {name, source, min_np}
//	POST /v1/profiles                     upload a profile set (prof.EncodeProfileSet bytes)
//	GET  /v1/profiles[?app=]              list stored sets
//	GET  /v1/profiles/{app}/{np}/{hash}   stored bytes, byte-identical to the upload
//	POST /v1/detect                       detect report (detect.EncodeJSON bytes)
//	GET  /v1/sweep?app=&scales=           per-scale elapsed/speedup/efficiency + log-log model
//	GET  /v1/comm?app=&np=                simulated rank-to-rank communication matrix
//	GET  /v1/watch?app=[&np=]             newest run vs rolling baseline (baseline.EncodeJSON bytes)
//
// A detect request reads stored profile sets by default (name scales,
// or hashes, or nothing for "every stored scale"); with "simulate":
// true it sweeps the app on the simulator instead. Either way it is the
// query scalana-detect runs, so the response bytes are what its -json
// writes for the same inputs. A watch request's query parameters (z,
// cusum, cusum-k, min-runs, min-share) are its only thresholds; an
// absent one takes its baseline.DefaultParams value.
//
// Watches and stored detects share one query.Samples cache, keyed by
// store key: a watch reads every run from it, and a stored detect every
// scale but its largest, re-hashing each stored set it names. It holds at
// most one sample a stored set.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/query"
	"scalana/internal/scales"
	"scalana/internal/store"

	scalana "scalana"
)

// Config configures a Server.
type Config struct {
	// Store is the content-addressed profile store (required).
	Store *store.Store
	// Engine is the shared compile cache; nil creates a fresh one. One
	// engine serves every request, so PSG and bytecode compilation for an
	// app happen once no matter how many uploads and queries touch it.
	Engine *scalana.Engine
	// Parallelism is the SweepConfig.Parallelism knob, reused at the
	// service level: it bounds how many simulation/PPG computations run
	// concurrently across all requests, and each simulate-mode sweep fans
	// its scales across the same bound. 0 means one worker per CPU.
	Parallelism int
	// SampleHz is the profiler rate for simulate-mode detect runs
	// (default 1000, matching scalana-detect's flag default).
	SampleHz float64
	// Logf receives one line per request (nil disables logging).
	Logf func(format string, args ...any)
}

// Server is the detection service. Create with New; safe for concurrent
// use.
type Server struct {
	// cfg is New's Config with its defaults filled in.
	cfg Config
	// env is what every query runs against: cfg's store, engine and sweep
	// fan-out, and the sample cache.
	env query.Env

	// gate bounds concurrent simulation/PPG work across requests.
	gate chan struct{}

	// flights coalesces concurrent identical queries, tallied per
	// endpoint.
	flights                         flightGroup
	detects, sweeps, comms, watches flightCount

	mu       sync.Mutex
	uploaded map[string]*scalana.App

	uploads atomic.Int64

	// computeGate, when non-nil, blocks every coalesced computation until
	// the channel closes. Test hook: it lets the coalescing test hold the
	// first computation open until a second request has verifiably
	// joined. Set before the server starts handling requests.
	computeGate chan struct{}
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Engine == nil {
		cfg.Engine = scalana.NewEngine()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.SampleHz <= 0 {
		cfg.SampleHz = 1000
	}
	s := &Server{
		cfg:      cfg,
		env:      query.Env{Engine: cfg.Engine, Store: cfg.Store, Parallelism: cfg.Parallelism, Samples: &query.Samples{}},
		gate:     make(chan struct{}, cfg.Parallelism),
		uploaded: map[string]*scalana.App{},
	}
	return s, nil
}

// Stats is the /v1/stats payload.
type Stats struct {
	// Uploads counts accepted profile-set uploads (idempotent re-uploads
	// included).
	Uploads int64 `json:"uploads"`
	// StoredSets is the number of profile sets currently in the store.
	StoredSets int `json:"stored_sets"`
	// DetectComputes counts detect computations actually performed;
	// DetectCoalesced counts requests answered by joining an in-flight
	// identical computation.
	DetectComputes  int64 `json:"detect_computes"`
	DetectCoalesced int64 `json:"detect_coalesced"`
	SweepComputes   int64 `json:"sweep_computes"`
	SweepCoalesced  int64 `json:"sweep_coalesced"`
	CommComputes    int64 `json:"comm_computes"`
	CommCoalesced   int64 `json:"comm_coalesced"`
	WatchComputes   int64 `json:"watch_computes"`
	WatchCoalesced  int64 `json:"watch_coalesced"`
	// BaselineSamples is the number of ingested samples in the cache that
	// watches and the smaller scales of stored detects share;
	// SampleIngests counts ingestions performed (cache misses).
	BaselineSamples int   `json:"baseline_samples"`
	SampleIngests   int64 `json:"sample_ingests"`
	// CompileCache is the shared engine's PSG compile-cache counters.
	CompileCache scalana.CacheStats `json:"compile_cache"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	stored, _ := s.env.Store.Count()
	samples, ingests := s.env.Samples.Counts()
	return Stats{
		Uploads:         s.uploads.Load(),
		StoredSets:      stored,
		DetectComputes:  s.detects.computes.Load(),
		DetectCoalesced: s.detects.coalesced.Load(),
		SweepComputes:   s.sweeps.computes.Load(),
		SweepCoalesced:  s.sweeps.coalesced.Load(),
		CommComputes:    s.comms.computes.Load(),
		CommCoalesced:   s.comms.coalesced.Load(),
		WatchComputes:   s.watches.computes.Load(),
		WatchCoalesced:  s.watches.coalesced.Load(),
		BaselineSamples: samples,
		SampleIngests:   ingests,
		CompileCache:    s.env.Engine.CacheStats(),
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/apps", s.handleListApps)
	mux.HandleFunc("POST /v1/apps", s.handleUploadApp)
	mux.HandleFunc("POST /v1/profiles", s.handleUploadProfiles)
	mux.HandleFunc("GET /v1/profiles", s.handleListProfiles)
	mux.HandleFunc("GET /v1/profiles/{app}/{np}/{hash}", s.handleGetProfiles)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/comm", s.handleComm)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	return s.logged(mux)
}

// logged wraps the mux with one log line per request.
func (s *Server) logged(next http.Handler) http.Handler {
	if s.cfg.Logf == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.cfg.Logf("%s %s -> %d (%d bytes)", r.Method, r.URL.Path, rec.status, rec.bytes)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// writeJSON writes an indented JSON response (trailing newline, like
// every CLI's -json output).
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	writeRaw(w, code, append(data, '\n'))
}

// writeRaw writes pre-encoded JSON bytes untouched — the byte-identity
// contract for stored profiles and detect reports.
func writeRaw(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	type errJSON struct {
		Error string `json:"error"`
	}
	writeJSON(w, code, errJSON{Error: fmt.Sprintf(format, args...)})
}

// fail maps a compute-path error onto an HTTP response. Store errors
// carry sentinel wraps, so each failure class lands on its own status
// instead of collapsing into 500: malformed client input is 400,
// missing content 404, ambiguous selections 409 (the client must name a
// hash), and corruption — server-side state gone bad — stays 500.
func fail(w http.ResponseWriter, err error) {
	var qe *query.Error
	if errors.As(err, &qe) {
		writeErr(w, qe.Status, "%s", qe.Msg)
		return
	}
	switch {
	case errors.Is(err, os.ErrInvalid):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, os.ErrNotExist):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, store.ErrAmbiguous):
		writeErr(w, http.StatusConflict, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// overMaxNP answers 400 for a scale above ppg.MaxNP: the service neither
// simulates nor sizes a graph for more ranks than that, whoever asks.
func overMaxNP(w http.ResponseWriter, nps ...int) bool {
	for _, np := range nps {
		if np > ppg.MaxNP {
			writeErr(w, http.StatusBadRequest, "np %d exceeds the service limit of %d ranks", np, ppg.MaxNP)
			return true
		}
	}
	return false
}

// acquire takes one simulation-gate slot.
func (s *Server) acquire() func() {
	s.gate <- struct{}{}
	return func() { <-s.gate }
}

// answer is the one path from a planned query to its response: the
// plan's canonical bytes, computed once per concurrent set of requests
// with the same key (single-flight on the query's canonical form) under
// a simulation-gate slot. A planning error arrives as err.
func answer[R any](s *Server, w http.ResponseWriter, c *flightCount, plan query.Plan[R], err error) {
	if err != nil {
		fail(w, err)
		return
	}
	data, err := s.flights.Do(plan.Key, c, func() ([]byte, error) {
		if s.computeGate != nil {
			<-s.computeGate
		}
		defer s.acquire()()
		return plan.Bytes()
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

// readJSON decodes a bounded JSON request body into v, answering 400
// itself when it cannot.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeErr(w, http.StatusBadRequest, "parse request: %v", err)
		return false
	}
	return true
}

// lookupApp resolves an application name: uploaded apps first, then the
// bundled registry. The returned *App is stable per name for the
// server's lifetime, which is what keys the engine's compile cache.
func (s *Server) lookupApp(name string) *scalana.App {
	s.mu.Lock()
	a := s.uploaded[name]
	s.mu.Unlock()
	if a != nil {
		return a
	}
	return scalana.GetApp(name)
}

// app is lookupApp for query endpoints: it answers 404 itself and
// returns nil when the name is unknown.
func (s *Server) app(w http.ResponseWriter, name string) *scalana.App {
	a := s.lookupApp(name)
	if a == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q", name)
	}
	return a
}

// ---- apps ----

// MaxApps is how many apps POST /v1/apps registers for the life of a
// server: each keeps its compiled PSG and bytecode in the engine cache.
const MaxApps = 64

type appUploadJSON struct {
	Name        string `json:"name"`
	Source      string `json:"source"`
	MinNP       int    `json:"min_np,omitempty"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleListApps(w http.ResponseWriter, r *http.Request) {
	type appJSON struct {
		Name  string `json:"name"`
		MinNP int    `json:"min_np"`
	}
	type listJSON struct {
		Bundled  []appJSON `json:"bundled"`
		Uploaded []appJSON `json:"uploaded"`
	}
	var out listJSON
	for _, name := range scalana.AppNames() {
		a := scalana.GetApp(name)
		out.Bundled = append(out.Bundled, appJSON{Name: a.Name, MinNP: a.MinNP})
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.uploaded))
	for name := range s.uploaded {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := s.uploaded[name]
		out.Uploaded = append(out.Uploaded, appJSON{Name: a.Name, MinNP: a.MinNP})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUploadApp(w http.ResponseWriter, r *http.Request) {
	var req appUploadJSON
	if !readJSON(w, r, 16<<20, &req) {
		return
	}
	if !store.ValidName(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid app name %q (letters, digits, '.', '_', '-' only)", req.Name)
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "app %q has no source", req.Name)
		return
	}
	if req.MinNP < 1 {
		req.MinNP = 2
	}
	if scalana.GetApp(req.Name) != nil {
		writeErr(w, http.StatusConflict, "%q is a bundled workload; pick another name", req.Name)
		return
	}
	type resultJSON struct {
		App    string `json:"app"`
		MinNP  int    `json:"min_np"`
		Status string `json:"status"`
	}
	// register installs app under its name unless one is registered
	// already (a nil app only asks), and answers for the registered one:
	// idempotent when it matches the request, a conflict when it differs.
	// A new name past MaxApps is refused.
	register := func(app *scalana.App) bool {
		s.mu.Lock()
		existing := s.uploaded[req.Name]
		full := existing == nil && len(s.uploaded) >= MaxApps
		if existing == nil && !full && app != nil {
			s.uploaded[req.Name] = app
		}
		s.mu.Unlock()
		switch {
		case full:
			writeErr(w, http.StatusInsufficientStorage, "the service already holds its limit of %d uploaded apps", MaxApps)
		case existing == nil:
			return false
		case existing.Source == req.Source && existing.MinNP == req.MinNP:
			writeJSON(w, http.StatusOK, resultJSON{App: req.Name, MinNP: req.MinNP, Status: "exists"})
		default:
			writeErr(w, http.StatusConflict, "app %q is already registered with different source", req.Name)
		}
		return true
	}
	if register(nil) {
		return
	}
	app := &scalana.App{
		Name:        req.Name,
		File:        req.Name + ".mp",
		Description: req.Description,
		Source:      req.Source,
		MinNP:       req.MinNP,
	}
	// Compile through the shared engine: this both validates the source
	// and warms the cache every later request for this app will hit.
	if _, _, err := s.env.Engine.Compile(app, psg.Options{}); err != nil {
		writeErr(w, http.StatusBadRequest, "compile %s: %v", req.Name, err)
		return
	}
	// Losing a registration race keeps the winner, so the engine cache
	// stays keyed by one *App per name.
	if register(app) {
		return
	}
	writeJSON(w, http.StatusCreated, resultJSON{App: req.Name, MinNP: req.MinNP, Status: "created"})
}

// ---- profiles ----

func (s *Server) handleUploadProfiles(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	// Peek at the envelope to find the app before the full validating
	// decode (which needs the app's compiled graph).
	appName, np, err := prof.PeekEnvelope(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !store.ValidName(appName) {
		writeErr(w, http.StatusBadRequest, "profile set names invalid app %q", appName)
		return
	}
	app := s.lookupApp(appName)
	if app == nil {
		writeErr(w, http.StatusNotFound, "unknown app %q: upload its source to /v1/apps first", appName)
		return
	}
	if np < 1 {
		writeErr(w, http.StatusBadRequest, "profile set has invalid np %d", np)
		return
	}
	if overMaxNP(w, np) {
		return
	}
	_, graph, err := s.env.Engine.Compile(app, psg.Options{})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "compile %s: %v", appName, err)
		return
	}
	// Validate by running exactly what every later query of this set will
	// run — the one reader, the graph sized by the scale the set is filed
	// under — so only sets that assemble are ever stored: history is
	// append-only, and one that cannot would fail its scale's watch
	// forever. PeekEnvelope is the reader's own top-level loop, so the app
	// and np routed on above are the ones it sees.
	if _, _, err := ppg.Decode(body, graph, np); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid profile set for %s: %v", appName, err)
		return
	}
	key, err := s.env.Store.Put(appName, np, body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "store profile set: %v", err)
		return
	}
	s.uploads.Add(1)
	type resultJSON struct {
		store.Key
		Size  int64 `json:"size"`
		Ranks int   `json:"ranks"`
	}
	writeJSON(w, http.StatusCreated, resultJSON{Key: key, Size: int64(len(body)), Ranks: np})
}

func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	var entries []store.Entry
	var err error
	if app := r.URL.Query().Get("app"); app != "" {
		entries, err = s.env.Store.ListApp(app)
	} else {
		entries, err = s.env.Store.List()
	}
	if err != nil {
		fail(w, err)
		return
	}
	type listJSON struct {
		Sets []store.Entry `json:"sets"`
	}
	writeJSON(w, http.StatusOK, listJSON{Sets: entries})
}

func (s *Server) handleGetProfiles(w http.ResponseWriter, r *http.Request) {
	np, err := strconv.Atoi(r.PathValue("np"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad scale %q", r.PathValue("np"))
		return
	}
	k := store.Key{App: r.PathValue("app"), NP: np, Hash: r.PathValue("hash")}
	data, err := s.env.Store.Get(k)
	if err != nil {
		fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, data)
}

// ---- queries ----

// detectConfigJSON is the wire form of detect.Config, field for field.
// Zero values mean "paper default" (detect.Config.Normalized).
type detectConfigJSON struct {
	AbnormThd  float64 `json:"abnorm_thd,omitempty"`
	SlopeThd   float64 `json:"slope_thd,omitempty"`
	MinShare   float64 `json:"min_share,omitempty"`
	TopK       int     `json:"topk,omitempty"`
	CommCauses bool    `json:"comm_causes,omitempty"`
}

// detectRequest is the wire form of query.Detect, whose fields it names:
// App by name (bundled or uploaded), a zero SampleHz as the server's
// configured rate, and zero Config fields as the paper defaults.
type detectRequest struct {
	App      string           `json:"app"`
	Scales   []int            `json:"scales,omitempty"`
	Hashes   []string         `json:"hashes,omitempty"`
	Simulate bool             `json:"simulate,omitempty"`
	SampleHz float64          `json:"hz,omitempty"`
	Seed     int64            `json:"seed,omitempty"`
	Config   detectConfigJSON `json:"config,omitempty"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if !readJSON(w, r, 1<<20, &req) {
		return
	}
	app := s.app(w, req.App)
	if app == nil || overMaxNP(w, req.Scales...) {
		return
	}
	q := query.Detect{
		App: app, Simulate: req.Simulate, Scales: req.Scales, Hashes: req.Hashes,
		SampleHz: req.SampleHz, Seed: req.Seed, Config: detect.Config(req.Config),
	}
	if q.SampleHz <= 0 {
		q.SampleHz = s.cfg.SampleHz
	}
	plan, err := s.env.Detect(q)
	answer(s, w, &s.detects, plan, err)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	app := s.app(w, r.URL.Query().Get("app"))
	if app == nil {
		return
	}
	q := query.Sweep{App: app}
	if sl := r.URL.Query().Get("scales"); sl != "" {
		var err error
		if q.Scales, err = scales.Parse(sl); err != nil {
			writeErr(w, http.StatusBadRequest, "scales: %v", err)
			return
		}
	}
	plan, err := s.env.Sweep(q)
	answer(s, w, &s.sweeps, plan, err)
}

func (s *Server) handleComm(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	app := s.app(w, v.Get("app"))
	if app == nil {
		return
	}
	q := query.Comm{App: app}
	var err error
	if q.NP, err = strconv.Atoi(v.Get("np")); err != nil || q.NP < 1 {
		writeErr(w, http.StatusBadRequest, "bad np %q", v.Get("np"))
		return
	}
	if overMaxNP(w, q.NP) {
		return
	}
	if sv := v.Get("seed"); sv != "" {
		if q.Seed, err = strconv.ParseInt(sv, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad seed %q", sv)
			return
		}
	}
	plan, err := s.env.Comm(q)
	answer(s, w, &s.comms, plan, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
