package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"scalana/internal/baseline"
	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/serve"
	"scalana/internal/store"

	scalana "scalana"
)

// The two service workloads drive serve.Server.Handler() in process
// with httptest recorders: the repository's code starts at Handler(),
// and a loopback socket would add kernel scheduling, not a layer of
// ours.

// server is a detection service over a fresh store, plus what the
// traced replays need to call the layers below the handlers directly.
type server struct {
	dir   string
	st    *store.Store
	eng   *scalana.Engine
	srv   *serve.Server
	h     http.Handler
	app   *scalana.App
	graph *psg.Graph
}

func newServer(e env) (*server, error) {
	dir, err := os.MkdirTemp(e.tmp, "scalana-bench-store-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, eng: scalana.NewEngine(), app: scalana.GetApp("zeusmp")}
	err = s.start()
	if err == nil && e.tr != nil {
		_, _, err = compileStages(e.tr, -1, s.app)
	}
	if err == nil {
		_, s.graph, err = s.eng.Compile(s.app, psg.Options{})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// start opens the store directory and a service over it.
func (s *server) start() error {
	var err error
	if s.st, err = store.Open(filepath.Join(s.dir, "store")); err != nil {
		return err
	}
	if s.srv, err = serve.New(serve.Config{Store: s.st, Engine: s.eng, Parallelism: 1, SampleHz: 2000}); err != nil {
		return err
	}
	s.h = s.srv.Handler()
	return nil
}

func (s *server) close() { os.RemoveAll(s.dir) }

// call serves one request in process and returns status and body.
func (s *server) call(method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// simulate profiles zeusmp at one scale and returns the profile set a
// scalana-prof run would upload, with the run's PPG.
func (s *server) simulate(np int, seed int64) (*prof.ProfileSet, *ppg.Graph, error) {
	out, err := s.eng.Run(scalana.RunConfig{App: s.app, NP: np, ToolName: "scalana", Prof: zeusmpProfConfig(seed), Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return &prof.ProfileSet{App: s.app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}, out.PPG(), nil
}

// countStats reports the service's counters as they stand after the
// run's fixed op count, warm-up included, and the store's size on disk.
func (s *server) countStats(tr *tracer) {
	if tr == nil {
		return
	}
	st := s.srv.Stats()
	tr.count("serve.detect_computes", float64(st.DetectComputes))
	tr.count("serve.sample_ingests", float64(st.SampleIngests))
	tr.count("serve.baseline_samples", float64(st.BaselineSamples))
	var size int64
	filepath.WalkDir(s.st.Root(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	tr.count("store.disk_mb", float64(size)/1e6)
}

// ---- serve-detect-stored ----

type serveDetectStored struct {
	*server
	keys []store.Key
	body []byte
	// want is the response the library produces for the stored sets.
	want []byte
}

func setupServeDetectStored(e env) (instance, error) {
	s, err := newServer(e)
	if err != nil {
		return nil, err
	}
	w := &serveDetectStored{server: s, body: []byte(`{"app":"zeusmp","scales":[64,256,1024]}`)}
	for _, np := range []int{64, 256, 1024} {
		ps, _, err := s.simulate(np, e.seed)
		if err != nil {
			s.close()
			return nil, err
		}
		var data []byte
		e.tr.do("prof.encode", -1, np, func() { data, err = prof.EncodeProfileSet(ps) })
		if err != nil {
			s.close()
			return nil, err
		}
		if code, resp := s.call("POST", "/v1/profiles", data); code != http.StatusCreated {
			s.close()
			return nil, fmt.Errorf("upload np=%d: status %d: %s", np, code, resp)
		}
		w.keys = append(w.keys, store.Key{App: s.app.Name, NP: np, Hash: store.HashOf(data)})
	}
	if w.want, err = w.library(nil, -1); err != nil {
		s.close()
		return nil, err
	}
	return w, nil
}

// library computes the detect response from the stored sets by calling
// the layers the handler calls, one replay span each when traced.
func (w *serveDetectStored) library(tr *tracer, op int) ([]byte, error) {
	runs := make([]detect.ScaleRun, 0, len(w.keys))
	for _, k := range w.keys {
		var data []byte
		var ps *prof.ProfileSet
		var pg *ppg.Graph
		var err error
		tr.replay("store.get", op, k.NP, func() { data, err = w.st.Get(k) })
		if err != nil {
			return nil, err
		}
		tr.replay("prof.decode", op, k.NP, func() { ps, err = prof.DecodeProfileSet(data, w.graph) })
		if err != nil {
			return nil, err
		}
		tr.replay("ppg.build", op, k.NP, func() { pg, err = ppg.Build(w.graph, ps.Profiles) })
		if err != nil {
			return nil, err
		}
		tr.count("prof.wire_bytes", float64(len(data)))
		tr.count("ppg.edges", float64(pg.NumEdges()))
		runs = append(runs, detect.ScaleRun{NP: k.NP, PPG: pg})
	}
	_, out, err := tracedReport(tr.replay, tr, op, runs, detect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func (w *serveDetectStored) op(i int, tr *tracer) opResult {
	res := opResult{key: "response"}
	var code int
	if tr == nil {
		before := w.eng.CacheStats().Misses
		code, res.out = w.call("POST", "/v1/detect", w.body)
		res.compileMisses = w.eng.CacheStats().Misses - before
	} else {
		tr.do("op", i, 0, func() {
			tr.do("serve.detect", i, 0, func() { code, res.out = w.call("POST", "/v1/detect", w.body) })
			_, res.err = w.library(tr, i)
		})
	}
	if res.err == nil && code != http.StatusOK {
		res.err = fmt.Errorf("POST /v1/detect: status %d: %s", code, res.out)
	}
	res.hit = res.err == nil && bytes.Equal(res.out, w.want)
	return res
}

func (w *serveDetectStored) rewind() error { return nil }

func (w *serveDetectStored) finish(tr *tracer) error {
	w.countStats(tr)
	return nil
}

// ---- serve-ingest-watch ----

const (
	// prepopulated is the history each scale starts with.
	prepopulated = 64
	// noiseAmp is the relative run-to-run noise on every vertex time. It
	// is uniform, so a run never sits more than √3 baseline deviations
	// above the mean and an uninjected upload stays below the z threshold.
	noiseAmp = 0.02
	// slowdown is the injected regression.
	slowdown = 1.5
	// watchMinShare lowers the watch's share filter: the service divides a
	// vertex's per-rank time by the time of all ranks, so at np=64 the
	// default 0.01 filters every vertex out.
	watchMinShare = 1e-4
	// watchCUSUM disables drift flagging: a CUSUM stays raised for many
	// runs after one spike, and the answer here is per upload.
	watchCUSUM = 1e9
)

var ingestScales = []int{8, 16, 32, 64}

// upload is one op's profile set. The bodies wait in files, not in
// memory: held for the whole run they were a third of peak_rss_mb, the
// metric that is there to see the service's caches grow.
type upload struct {
	np   int
	size int
	// injected is the JSON-encoded key of the slowed-down vertex, nil for
	// an ordinary upload.
	injected []byte
}

type serveIngestWatch struct {
	*server
	uploads []upload
	// body is the one buffer every upload is read into.
	body   []byte
	params baseline.Params
	// replay-side state of the traced run: a second store that receives
	// the same Puts, and the samples the replayed watch folds over.
	replaySt *store.Store
	samples  map[store.Key]*baseline.Sample
	// uploaded counts the ops since the service started, each of which
	// uploaded one distinct set.
	uploaded int
}

// injectedAt says whether upload i carries the slowdown: ops 9, 18, 27
// and 36 of every 40, which is every tenth upload and visits all four
// scales of the round-robin.
func injectedAt(i int) bool { return i%40 != 0 && i%40%9 == 0 }

func setupServeIngestWatch(e env) (instance, error) {
	s, err := newServer(e)
	if err != nil {
		return nil, err
	}
	w := &serveIngestWatch{server: s, samples: map[store.Key]*baseline.Sample{}}
	w.params = baseline.DefaultParams()
	w.params.MinShare, w.params.CUSUMThd = watchMinShare, watchCUSUM
	if err := w.generate(e); err != nil {
		s.close()
		return nil, err
	}
	return w, nil
}

// generate simulates one base set per scale, stores 64 perturbed copies
// of each as the starting history, and prepares one distinct perturbed
// upload per op.
func (w *serveIngestWatch) generate(e env) error {
	bases := map[int]*prof.ProfileSet{}
	// share[vid] is the smallest share the vertex has at any scale, as the
	// watch computes it.
	var share []float64
	for _, np := range ingestScales {
		ps, pg, err := w.simulate(np, e.seed)
		if err != nil {
			return err
		}
		bases[np] = ps
		smp := baseline.Ingest(pg, "", ps.Elapsed, fit.MergeMedian)
		if share == nil {
			share = make([]float64, len(smp.Values))
			for v := range share {
				share[v] = 1
			}
		}
		for v, x := range smp.Values {
			if sh := x / smp.TotalTime; math.IsNaN(sh) {
				share[v] = 0 // the vertex is absent at this scale
			} else if sh < share[v] {
				share[v] = sh
			}
		}
	}
	// The slowdown goes to one of the (up to) four heaviest vertices that
	// clear the share filter at every scale.
	var cands []psg.VID
	for v, sh := range share {
		if vert := w.graph.VertexByVID(psg.VID(v)); sh >= 3*watchMinShare && vert != nil && vert.Kind != psg.KindRoot {
			cands = append(cands, psg.VID(v))
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if share[cands[a]] != share[cands[b]] {
			return share[cands[a]] > share[cands[b]]
		}
		return cands[a] < cands[b]
	})
	if len(cands) == 0 {
		return fmt.Errorf("no zeusmp vertex clears the watch share filter at every scale")
	}
	if len(cands) > 4 {
		cands = cands[:4]
	}

	rng := rand.New(rand.NewSource(e.seed))
	for _, np := range ingestScales {
		for j := 0; j < prepopulated; j++ {
			data, err := perturbed(bases[np], rng, psg.VIDNone)
			if err != nil {
				return err
			}
			if _, err := w.st.Put(w.app.Name, np, data); err != nil {
				return err
			}
		}
	}
	if err := os.Mkdir(filepath.Join(w.dir, "uploads"), 0o755); err != nil {
		return err
	}
	if err := copyTree(w.st.Root(), w.snapshotDir()); err != nil {
		return err
	}
	w.uploads = make([]upload, e.ops)
	for i := range w.uploads {
		u := upload{np: ingestScales[i%len(ingestScales)]}
		inject := psg.VIDNone
		if injectedAt(i) {
			inject = cands[rng.Intn(len(cands))]
			key, err := json.Marshal(w.graph.KeyOf(inject))
			if err != nil {
				return err
			}
			u.injected = key
		}
		var body []byte
		var err error
		// The span carries the op the body is for, so prof.encode_ms reads per
		// upload like the other stages; set-up spans are on no op's path.
		e.tr.do("prof.encode", i, u.np, func() { body, err = perturbed(bases[u.np], rng, inject) })
		if err != nil {
			return err
		}
		if err := os.WriteFile(w.uploadPath(i), body, 0o644); err != nil {
			return err
		}
		u.size = len(body)
		w.uploads[i] = u
	}
	return nil
}

func (w *serveIngestWatch) snapshotDir() string { return filepath.Join(w.dir, "snapshot") }

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
}

// copyFile copies through the kernel, not through buffers of ours that
// would count toward peak_rss_mb.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// rewind puts the store directory back to the 64 runs a scale that
// set-up stored and restarts the service over it, its caches filled by
// one watch per scale: every block of the timed section then ingests into
// the same history. It is a restart, not files swapped under a running
// service, so that whatever the service comes to keep in memory is
// rebuilt along with the directory.
func (w *serveIngestWatch) rewind() error {
	if err := os.RemoveAll(w.st.Root()); err != nil {
		return err
	}
	if err := copyTree(w.snapshotDir(), w.st.Root()); err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	w.uploaded = 0
	for _, np := range ingestScales {
		if code, resp := w.call("GET", watchTarget(np), nil); code != http.StatusOK {
			return fmt.Errorf("GET /v1/watch np=%d: status %d: %s", np, code, resp)
		}
	}
	return nil
}

func (w *serveIngestWatch) uploadPath(i int) string {
	return filepath.Join(w.dir, "uploads", strconv.Itoa(i)+".json")
}

// readUpload reads op i's body into the shared buffer. It runs inside
// the op's sample: a page-cache read of ~60 KB against an op of
// milliseconds.
func (w *serveIngestWatch) readUpload(i int) ([]byte, error) {
	f, err := os.Open(w.uploadPath(i))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if n := w.uploads[i].size; cap(w.body) < n {
		w.body = make([]byte, n)
	}
	body := w.body[:w.uploads[i].size]
	_, err = io.ReadFull(f, body)
	return body, err
}

// perturbed encodes a copy of the base set in which every vertex's time
// is scaled by its own uniform noise factor on all ranks, and the
// slowed vertex by 1.5 on top.
func perturbed(base *prof.ProfileSet, rng *rand.Rand, slow psg.VID) ([]byte, error) {
	factors := make([]float64, len(base.Profiles[0].Vertex))
	for v := range factors {
		factors[v] = 1 + noiseAmp*(2*rng.Float64()-1)
	}
	if slow != psg.VIDNone {
		factors[slow] *= slowdown
	}
	ps := *base
	ps.Profiles = make([]*prof.RankProfile, len(base.Profiles))
	for r, rp := range base.Profiles {
		cp := *rp
		cp.Vertex = append([]prof.PerfData(nil), rp.Vertex...)
		for v := range cp.Vertex {
			cp.Vertex[v].Time *= factors[v]
		}
		ps.Profiles[r] = &cp
	}
	return prof.EncodeProfileSet(&ps)
}

func watchTarget(np int) string {
	q := url.Values{}
	q.Set("app", "zeusmp")
	q.Set("np", strconv.Itoa(np))
	q.Set("min-share", strconv.FormatFloat(watchMinShare, 'g', -1, 64))
	q.Set("cusum", strconv.FormatFloat(watchCUSUM, 'g', -1, 64))
	return "/v1/watch?" + q.Encode()
}

// topRegression scans a watch response for its first flagged vertex
// without decoding it: quiet when the report has no regressions,
// otherwise the JSON-encoded key of the worst one.
func topRegression(resp []byte) (key []byte, quiet bool) {
	at := bytes.LastIndex(resp, []byte(`"regressions": [`))
	if at < 0 {
		return nil, true
	}
	rest := resp[at:]
	const field = `"key": `
	k := bytes.Index(rest, []byte(field))
	if k < 0 {
		return nil, false
	}
	rest = rest[k+len(field):]
	if end := bytes.IndexByte(rest[1:], '"'); end >= 0 {
		return rest[:end+2], false
	}
	return nil, false
}

func (w *serveIngestWatch) op(i int, tr *tracer) opResult {
	u := &w.uploads[i]
	// Op i always finds the uploads 0 … i-1 stored before it, in the timed
	// blocks as in a traced run, so its watch report depends on i alone.
	res := opResult{key: fmt.Sprintf("op-%06d", i)}
	w.uploaded++
	var upCode, code int
	var upResp []byte
	if tr == nil {
		before := w.eng.CacheStats().Misses
		var body []byte
		if body, res.err = w.readUpload(i); res.err != nil {
			return res
		}
		upCode, upResp = w.call("POST", "/v1/profiles", body)
		code, res.out = w.call("GET", watchTarget(u.np), nil)
		res.compileMisses = w.eng.CacheStats().Misses - before
	} else {
		tr.do("op", i, 0, func() {
			var body []byte
			if body, res.err = w.readUpload(i); res.err != nil {
				return
			}
			tr.do("serve.upload", i, u.np, func() { upCode, upResp = w.call("POST", "/v1/profiles", body) })
			runs := prepopulated + i/len(ingestScales) + 1
			tr.do("serve.watch", i, runs, func() { code, res.out = w.call("GET", watchTarget(u.np), nil) })
			res.err = w.replayOp(tr, i, u.np, body, res.out)
		})
	}
	switch {
	case res.err != nil:
	case upCode != http.StatusCreated:
		res.err = fmt.Errorf("POST /v1/profiles: status %d: %s", upCode, upResp)
	case code != http.StatusOK:
		res.err = fmt.Errorf("GET /v1/watch: status %d: %s", code, res.out)
	default:
		top, quiet := topRegression(res.out)
		if u.injected == nil {
			res.hit = quiet
		} else {
			res.hit = bytes.Equal(top, u.injected)
		}
		if !quiet {
			tr.count("baseline.flagged", 1)
		}
	}
	return res
}

// replayOp calls, on the bytes the two handlers just saw, the layers
// they went through: the validating decode and the Put of the upload,
// then the listing, the ingest of the new set, the fold over every run
// and the encode of the watch. The replayed report must equal the
// served one.
func (w *serveIngestWatch) replayOp(tr *tracer, i, np int, body, served []byte) error {
	var err error
	if w.replaySt == nil {
		if w.replaySt, err = store.Open(filepath.Join(w.dir, "replay")); err != nil {
			return err
		}
	}
	tr.replay("prof.decode", i, np, func() { _, err = prof.DecodeProfileSet(body, w.graph) })
	if err != nil {
		return err
	}
	tr.replay("store.put", i, np, func() { _, err = w.replaySt.Put(w.app.Name, np, body) })
	if err != nil {
		return err
	}
	tr.count("prof.wire_bytes", float64(len(body)))

	hists := map[int][]store.Entry{}
	tr.replay("store.history", i, 0, func() {
		if _, err = w.st.ListApp(w.app.Name); err != nil {
			return
		}
		for _, scale := range ingestScales {
			if hists[scale], err = w.st.History(w.app.Name, scale); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	newest := store.Key{App: w.app.Name, NP: np, Hash: store.HashOf(body)}
	var data []byte
	tr.replay("store.get", i, np, func() { data, err = w.st.Get(newest) })
	if err != nil {
		return err
	}
	tr.replay("baseline.ingest", i, np, func() {
		w.samples[newest], err = baseline.IngestBytes(data, w.graph, newest.Hash, fit.MergeMedian)
	})
	if err != nil {
		return err
	}
	// Runs stored before the traced section began are ingested here,
	// outside any span: the service has had them cached since its first
	// watch.
	for _, scale := range ingestScales {
		for _, e := range hists[scale] {
			if w.samples[e.Key] != nil {
				continue
			}
			old, err := w.st.Get(e.Key)
			if err != nil {
				return err
			}
			if w.samples[e.Key], err = baseline.IngestBytes(old, w.graph, e.Hash, fit.MergeMedian); err != nil {
				return err
			}
		}
	}
	var rep *baseline.Report
	tr.replay("baseline.watch", i, len(hists[np]), func() {
		state := baseline.NewState(w.app.Name, w.graph, fit.MergeMedian)
		for _, scale := range ingestScales {
			for seq, e := range hists[scale] {
				if err = state.Add(seq, w.samples[e.Key]); err != nil {
					return
				}
			}
		}
		rep, err = state.Watch(np, w.params)
	})
	if err != nil {
		return err
	}
	var out []byte
	tr.replay("baseline.encode", i, 0, func() { out, err = rep.EncodeJSON() })
	if err != nil {
		return err
	}
	if !bytes.Equal(append(out, '\n'), served) {
		return fmt.Errorf("served watch report differs from the one the library computes")
	}
	return nil
}

// finish checks that every upload since the service started landed in
// its scale's history.
func (w *serveIngestWatch) finish(tr *tracer) error {
	w.countStats(tr)
	total := 0
	for _, np := range ingestScales {
		h, err := w.st.History(w.app.Name, np)
		if err != nil {
			return err
		}
		total += len(h)
	}
	tr.count("baseline.history_len", float64(total))
	if want := len(ingestScales)*prepopulated + w.uploaded; total != want {
		return fmt.Errorf("store holds %d runs, want %d", total, want)
	}
	return nil
}
