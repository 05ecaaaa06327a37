// Package query is the one implementation of the paper's workflow chain
// (§V: profile → build PPG → detect → report) behind both front ends.
// scalana-detect parses flags into a typed query and scalana-serve
// parses a request into the same query; each Env method validates it,
// resolves its inputs, and returns a Plan whose Run produces the typed
// report together with its canonical bytes (EncodeJSON + '\n'). The
// CLI's -json output and the served response are those bytes, so the
// two agree by construction rather than by test.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"scalana/internal/commmatrix"
	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/scales"
	"scalana/internal/store"

	scalana "scalana"
)

// Env is what queries run against.
type Env struct {
	// Engine is the compile cache every query shares.
	Engine *scalana.Engine
	// Store holds the stored profile sets; nil when every query
	// simulates or reads a profiles directory.
	Store *store.Store
	// Parallelism fans a simulate-source sweep's scales (the
	// SweepConfig.Parallelism knob).
	Parallelism int
	// Samples caches the baseline samples a watch reads for every run and
	// a stored detect for every scale but its largest; nil ingests each
	// one from its stored bytes.
	Samples *Samples
}

// Plan is a validated query with its inputs resolved.
type Plan[R any] struct {
	// Key is the query's canonical form: it names the exact stored
	// content (or simulation parameters) and every resolved knob, so equal
	// keys mean equal bytes out. The service coalesces on it.
	Key string
	// Run computes the report and its canonical bytes.
	Run func() (R, []byte, error)
}

// Bytes runs the plan for its canonical bytes alone.
func (p Plan[R]) Bytes() ([]byte, error) {
	_, data, err := p.Run()
	return data, err
}

// Error is a query the caller got wrong. Status classifies it the way
// the service answers it (400 malformed, 404 nothing stored, 409 stored
// content at odds with the app); the CLI prints Msg and exits 1.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// errorf builds an *Error.
func errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// checkMinNP rejects scales below the app's minimum rank count.
func checkMinNP(app *scalana.App, nps ...int) error {
	for _, np := range nps {
		if np < app.MinNP {
			return errorf(http.StatusBadRequest, "%s requires at least %d ranks, got %d", app.Name, app.MinNP, np)
		}
	}
	return nil
}

// errNoSets is the answer for an app with nothing stored.
func errNoSets(appName string) error {
	return errorf(http.StatusNotFound, "no profile sets stored for app %q", appName)
}

// Histories lists an app's stored scales ascending and, per scale, its
// entries in upload order (store.History) — the order that assigns each
// run its baseline sequence number. A scale directory holding no stored
// set is not a scale, whatever its history log says.
func (e *Env) Histories(appName string) ([]int, map[int][]store.Entry, error) {
	dirs, err := e.Store.Scales(appName)
	if err != nil {
		return nil, nil, err
	}
	nps := make([]int, 0, len(dirs))
	hists := make(map[int][]store.Entry, len(dirs))
	for _, np := range dirs {
		hist, err := e.Store.History(appName, np)
		if err != nil {
			return nil, nil, err
		}
		if len(hist) > 0 {
			nps = append(nps, np)
			hists[np] = hist
		}
	}
	if len(nps) == 0 {
		return nil, nil, errNoSets(appName)
	}
	return nps, hists, nil
}

// resolve maps a (scales, hashes) selection onto concrete store entries,
// in request order. With neither, every stored scale is used ascending;
// each scale must resolve to exactly one stored set.
func (e *Env) resolve(appName string, scaleList []int, hashes []string) ([]store.Entry, error) {
	if len(scaleList) > 0 && len(hashes) > 0 {
		return nil, errorf(http.StatusBadRequest, "pass \"scales\" or \"hashes\", not both")
	}
	if len(hashes) > scales.MaxScales {
		return nil, errorf(http.StatusBadRequest, "%d hashes: a query may name at most %d", len(hashes), scales.MaxScales)
	}
	entries := make([]store.Entry, 0, len(scaleList)+len(hashes))
	if len(hashes) > 0 {
		seenNP := map[int]bool{}
		for _, h := range hashes {
			ent, err := e.Store.Resolve(appName, h)
			if err != nil {
				return nil, err
			}
			if seenNP[ent.NP] {
				return nil, errorf(http.StatusBadRequest, "two selected sets share scale np=%d; detection needs one run per scale", ent.NP)
			}
			seenNP[ent.NP] = true
			entries = append(entries, ent)
		}
		return entries, nil
	}
	allStored := len(scaleList) == 0
	if allStored {
		var err error
		if scaleList, err = e.Store.Scales(appName); err != nil {
			return nil, err
		}
	} else if err := scales.Validate(scaleList); err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	for _, np := range scaleList {
		ent, err := e.Store.Only(appName, np)
		if allStored && errors.Is(err, os.ErrNotExist) {
			continue // a scale directory holding no stored set is not a scale
		}
		if err != nil {
			return nil, err
		}
		entries = append(entries, ent)
	}
	if len(entries) == 0 {
		return nil, errNoSets(appName)
	}
	return entries, nil
}

// entriesKey names resolved store entries for a plan key.
func entriesKey(entries []store.Entry) string {
	parts := make([]string, len(entries))
	for i, ent := range entries {
		parts[i] = fmt.Sprintf("%d:%s", ent.NP, ent.Hash)
	}
	return strings.Join(parts, ",")
}

// stored reads one stored set the way every query does — the bytes its
// key names through the one reader, the graph sized by the key's scale —
// or, with build unset, validates the same bytes for the envelope alone. A
// set whose ranks or envelope name another scale than its key was not
// filed there by Put.
func (e *Env) stored(app *scalana.App, ent store.Entry, build bool) (pg *ppg.Graph, set prof.ProfileSet, err error) {
	_, graph, err := e.Engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, set, err
	}
	data, err := e.Store.Get(ent.Key)
	if err != nil {
		return nil, set, err
	}
	if build {
		pg, set, err = ppg.Decode(data, graph, ent.NP)
	} else {
		set, err = prof.ReadProfileSet(data, graph, nil)
	}
	corrupt := func(np int) error {
		return fmt.Errorf("stored set %s decodes to np=%d: %w", ent.Key, np, store.ErrCorrupt)
	}
	var misfiled *ppg.NPError
	switch {
	case errors.As(err, &misfiled):
		return nil, set, corrupt(misfiled.NP)
	case err != nil:
		return nil, set, errorf(http.StatusConflict, "stored set %s no longer decodes against %s: %v", ent.Key, app.Name, err)
	case set.NP != ent.NP:
		return nil, set, corrupt(set.NP)
	}
	return pg, set, nil
}

// Detect is a scaling-loss detection query. Its source is the simulator
// (Simulate), a directory of saved scalana-prof outputs named
// <app>.<np>.json (ProfilesDir), or — by default — the Env's store, of
// which only the largest scale needs a PPG: every smaller one feeds the
// cross-scale fit its baseline sample (detect.ScaleRun.Merged).
type Detect struct {
	App         *scalana.App
	Simulate    bool
	ProfilesDir string
	// Scales selects the scales to simulate or load. For the store source
	// each must hold exactly one stored set, and empty means every stored
	// scale, ascending.
	Scales []int
	// Hashes selects stored sets by content hash (full or unique prefix)
	// instead of by scale.
	Hashes []string
	// SampleHz and Seed configure simulate-source runs.
	SampleHz float64
	Seed     int64
	// Config is the resolved detection configuration.
	Config detect.Config
}

// Detect plans a detection query.
func (e *Env) Detect(q Detect) (Plan[*detect.Report], error) {
	var none Plan[*detect.Report]
	app := q.App
	var src string
	var load func() ([]detect.ScaleRun, error)
	switch {
	case q.Simulate:
		if len(q.Hashes) > 0 {
			return none, errorf(http.StatusBadRequest, "simulate mode reads no stored sets; drop \"hashes\"")
		}
		if len(q.Scales) == 0 {
			return none, errorf(http.StatusBadRequest, "simulate mode needs \"scales\"")
		}
		if err := scales.Validate(q.Scales); err != nil {
			return none, errorf(http.StatusBadRequest, "%v", err)
		}
		if err := checkMinNP(app, q.Scales...); err != nil {
			return none, err
		}
		src = fmt.Sprintf("sim|%v|hz=%g|seed=%d", q.Scales, q.SampleHz, q.Seed)
		load = func() ([]detect.ScaleRun, error) {
			pcfg := prof.DefaultConfig()
			pcfg.SampleHz = q.SampleHz
			return e.Engine.Sweep(app, q.Scales, scalana.SweepConfig{Parallelism: e.Parallelism, Prof: pcfg, Seed: q.Seed})
		}
	case q.ProfilesDir != "":
		src = fmt.Sprintf("dir|%s|%v", q.ProfilesDir, q.Scales)
		load = func() ([]detect.ScaleRun, error) { return e.loadDir(app, q.ProfilesDir, q.Scales) }
	default:
		entries, err := e.resolve(app.Name, q.Scales, q.Hashes)
		if err != nil {
			return none, err
		}
		src = "stored|" + entriesKey(entries)
		load = func() ([]detect.ScaleRun, error) {
			largest := 0
			for _, ent := range entries {
				largest = max(largest, ent.NP)
			}
			runs := make([]detect.ScaleRun, len(entries))
			for i, ent := range entries {
				runs[i].NP = ent.NP
				var err error
				if ent.NP == largest {
					runs[i].PPG, _, err = e.stored(app, ent, true)
				} else {
					runs[i].Merged, err = e.merged(app, ent)
				}
				if err != nil {
					return nil, err
				}
			}
			return runs, nil
		}
	}
	c := q.Config.Normalized()
	key := fmt.Sprintf("detect|%s|%s|%g|%g|%g|%d|%t", app.Name, src, c.AbnormThd, c.SlopeThd, c.MinShare, c.TopK, c.CommCauses)
	return Plan[*detect.Report]{Key: key, Run: func() (*detect.Report, []byte, error) {
		runs, err := load()
		if err != nil {
			return nil, nil, err
		}
		rep, err := scalana.DetectScalingLoss(runs, c)
		if err != nil {
			return nil, nil, err
		}
		data, err := rep.EncodeJSON()
		return rep, append(data, '\n'), err
	}}, nil
}

// merged reads a smaller scale of a stored detect, which feeds the
// cross-scale fit alone: its sample's merged times, once the stored bytes
// the sample was taken from still hash to their key.
func (e *Env) merged(app *scalana.App, ent store.Entry) ([]float64, error) {
	if err := e.Store.Verify(ent.Key); err != nil {
		return nil, err
	}
	smp, err := e.sample(app, ent)
	if err != nil {
		return nil, err
	}
	return smp.Values, nil
}

// loadDir builds per-scale PPGs from saved scalana-prof outputs.
func (e *Env) loadDir(app *scalana.App, dir string, nps []int) ([]detect.ScaleRun, error) {
	_, graph, err := e.Engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, err
	}
	runs := make([]detect.ScaleRun, 0, len(nps))
	for _, np := range nps {
		path := filepath.Join(dir, fmt.Sprintf("%s.%d.json", app.Name, np))
		var pg *ppg.Graph
		data, err := os.ReadFile(path)
		if err == nil {
			pg, _, err = ppg.Decode(data, graph, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
	}
	return runs, nil
}

// Sweep compares an app's stored runs across scales: per-scale elapsed,
// speedup and efficiency, plus the log-log elapsed-vs-np model. Scales
// selects stored sets as in Detect.
type Sweep struct {
	App    *scalana.App
	Scales []int
}

// SweepRun is one scale of a SweepReport.
type SweepRun struct {
	NP      int              `json:"np"`
	Hash    string           `json:"hash"`
	Elapsed detect.WireFloat `json:"elapsed"`
	// Speedup is elapsed at the smallest scale over elapsed here;
	// Efficiency normalizes by the scale ratio (1.0 = perfect strong
	// scaling).
	Speedup    detect.WireFloat `json:"speedup"`
	Efficiency detect.WireFloat `json:"efficiency"`
}

// SweepModel is the fitted log-log model of a SweepReport.
type SweepModel struct {
	A  detect.WireFloat `json:"a"`
	B  detect.WireFloat `json:"b"`
	R2 detect.WireFloat `json:"r2"`
}

// SweepReport is the answer to a Sweep query.
type SweepReport struct {
	App  string     `json:"app"`
	Runs []SweepRun `json:"runs"`
	// Model is the log-log elapsed-vs-np fit (nil with fewer than two
	// scales).
	Model *SweepModel `json:"model,omitempty"`
}

// Sweep plans a sweep comparison.
func (e *Env) Sweep(q Sweep) (Plan[*SweepReport], error) {
	entries, err := e.resolve(q.App.Name, q.Scales, nil)
	if err != nil {
		return Plan[*SweepReport]{}, err
	}
	key := fmt.Sprintf("sweep|%s|%s", q.App.Name, entriesKey(entries))
	return Plan[*SweepReport]{Key: key, Run: func() (*SweepReport, []byte, error) {
		rep := &SweepReport{App: q.App.Name}
		var nps, elapsed []float64
		for _, ent := range entries {
			// Only the envelope's elapsed is read: no rank is kept or built.
			_, set, err := e.stored(q.App, ent, false)
			if err != nil {
				return nil, nil, err
			}
			rep.Runs = append(rep.Runs, SweepRun{NP: ent.NP, Hash: ent.Hash, Elapsed: detect.WireFloat(set.Elapsed)})
			nps = append(nps, float64(ent.NP))
			elapsed = append(elapsed, set.Elapsed)
		}
		for i := range rep.Runs {
			r := &rep.Runs[i]
			r.Speedup = rep.Runs[0].Elapsed / r.Elapsed
			r.Efficiency = r.Speedup * detect.WireFloat(rep.Runs[0].NP) / detect.WireFloat(r.NP)
		}
		if model, err := fit.FitLogLog(nps, elapsed); err == nil {
			rep.Model = &SweepModel{A: detect.WireFloat(model.A), B: detect.WireFloat(model.B), R2: detect.WireFloat(model.R2)}
		}
		data, err := json.MarshalIndent(rep, "", " ")
		return rep, append(data, '\n'), err
	}}, nil
}

// Comm is a simulated rank-to-rank communication-matrix query.
type Comm struct {
	App  *scalana.App
	NP   int
	Seed int64
}

// CommFlow is one heavy (src, dst) pair of a CommReport.
type CommFlow struct {
	Src   int              `json:"src"`
	Dst   int              `json:"dst"`
	Bytes detect.WireFloat `json:"bytes"`
	Msgs  int64            `json:"msgs"`
}

// CommReport is the answer to a Comm query.
type CommReport struct {
	App        string           `json:"app"`
	NP         int              `json:"np"`
	Seed       int64            `json:"seed"`
	TotalBytes detect.WireFloat `json:"total_bytes"`
	// Bytes and Msgs are the dense np*np traffic matrices in row-major
	// order (src*np+dst), as collected by the commmatrix tool.
	Bytes    []detect.WireFloat `json:"bytes"`
	Msgs     []int64            `json:"msgs"`
	TopFlows []CommFlow         `json:"top_flows"`
}

// Comm plans a communication-matrix query.
func (e *Env) Comm(q Comm) (Plan[*CommReport], error) {
	if err := checkMinNP(q.App, q.NP); err != nil {
		return Plan[*CommReport]{}, err
	}
	if q.NP > commmatrix.MaxNP {
		return Plan[*CommReport]{}, errorf(http.StatusBadRequest, "np %d exceeds the communication-matrix limit of %d ranks", q.NP, commmatrix.MaxNP)
	}
	key := fmt.Sprintf("comm|%s|np=%d|seed=%d", q.App.Name, q.NP, q.Seed)
	return Plan[*CommReport]{Key: key, Run: func() (*CommReport, []byte, error) {
		out, err := e.Engine.Run(scalana.RunConfig{App: q.App, NP: q.NP, ToolName: "commmatrix", Seed: q.Seed})
		if err != nil {
			return nil, nil, err
		}
		m := out.Data.(*commmatrix.Matrix)
		rep := &CommReport{
			App: q.App.Name, NP: q.NP, Seed: q.Seed,
			TotalBytes: detect.WireFloat(m.TotalBytes()),
			Bytes:      make([]detect.WireFloat, len(m.Bytes)),
			Msgs:       m.Msgs,
		}
		for i, b := range m.Bytes {
			rep.Bytes[i] = detect.WireFloat(b)
		}
		for _, f := range m.TopFlows(10) {
			rep.TopFlows = append(rep.TopFlows, CommFlow{Src: f.Src, Dst: f.Dst, Bytes: detect.WireFloat(f.Bytes), Msgs: f.Msgs})
		}
		data, err := json.MarshalIndent(rep, "", " ")
		return rep, append(data, '\n'), err
	}}, nil
}
