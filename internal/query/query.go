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
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"

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
	// Cache holds the baseline samples a watch reads for every run and
	// the graph of every scale a stored detect reads, with the stamp of the
	// stored file it was decoded from; nil reads each from its stored bytes.
	Cache *Cache
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
// or, with build unset, validates the same bytes for the envelope alone.
// It returns what the bytes decode to with the stamp of the file they were
// read from. A set whose ranks or envelope name another scale than its key
// was not filed there by Put.
func (e *Env) stored(app *scalana.App, ent store.Entry, build bool) (pg *ppg.Graph, set prof.ProfileSet, st store.Stamp, err error) {
	_, graph, err := e.Engine.Compile(app, psg.Options{})
	if err != nil {
		return nil, set, st, err
	}
	data, st, err := e.Store.Read(ent.Key)
	if err != nil {
		return nil, set, st, err
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
		return nil, set, st, corrupt(misfiled.NP)
	case err != nil:
		return nil, set, st, errorf(http.StatusConflict, "stored set %s no longer decodes against %s: %v", ent.Key, app.Name, err)
	case set.NP != ent.NP:
		return nil, set, st, corrupt(set.NP)
	}
	return pg, set, st, nil
}

// Detect is a scaling-loss detection query. Its source is the simulator
// (Simulate), a directory of saved scalana-prof outputs named
// <app>.<np>.json (ProfilesDir), or — by default — the Env's store. Each
// gives every scale's PPG.
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
	if err := q.Config.Validate(); err != nil {
		return none, errorf(http.StatusBadRequest, "%v", err)
	}
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
		if hz := q.SampleHz; !(hz > 0 && hz <= math.MaxFloat64) {
			return none, errorf(http.StatusBadRequest, "sampling rate %g Hz: want a finite rate above 0", hz)
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
			runs := make([]detect.ScaleRun, len(entries))
			for i, ent := range entries {
				pg, err := e.graph(app, ent)
				if err != nil {
					return nil, err
				}
				runs[i] = detect.ScaleRun{NP: ent.NP, PPG: pg}
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

// graph reads one scale of a stored detect: its PPG from e.Cache while
// the entry's stamp is clean and the stored file still has it (one stat,
// store.Store.Unchanged). Any other hit reads and hashes the file again
// (store.Store.Read, which answers Get's error) and keeps the graph under
// the new stamp; a miss decodes the bytes Read hashed and caches the graph
// with their stamp.
func (e *Env) graph(app *scalana.App, ent store.Entry) (*ppg.Graph, error) {
	if pg, st := e.Cache.graph(ent.Key); pg != nil {
		if e.Store.Unchanged(ent.Key, st) {
			return pg, nil
		}
		_, st, err := e.Store.Read(ent.Key)
		e.Cache.reread(ent.Key, pg, st, err == nil)
		if err != nil {
			return nil, err
		}
		return pg, nil
	}
	pg, _, st, err := e.stored(app, ent, true)
	if err != nil {
		return nil, err
	}
	e.Cache.addGraph(ent.Key, pg, st)
	return pg, nil
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
		// The file name gives the scale the fit uses, so the set must be
		// of that size, as a stored set must be of its key's.
		var pg *ppg.Graph
		var set prof.ProfileSet
		data, err := os.ReadFile(path)
		if err == nil {
			pg, set, err = ppg.Decode(data, graph, np)
		}
		misnamed := func(got int) error {
			return fmt.Errorf("load %s: the set is np=%d, its name says np=%d", path, got, np)
		}
		var misfiled *ppg.NPError
		switch {
		case errors.As(err, &misfiled):
			return nil, misnamed(misfiled.NP)
		case err != nil:
			return nil, fmt.Errorf("load %s: %w", path, err)
		case set.NP != np:
			return nil, misnamed(set.NP)
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
			_, set, _, err := e.stored(q.App, ent, false)
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
