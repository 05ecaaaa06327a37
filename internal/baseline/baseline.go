// Package baseline turns the content-addressed run history that
// scalana-serve accumulates into a streaming regression detector
// (ROADMAP: online/streaming detection over a rolling run history).
// ScalAna's offline pipeline answers "which vertices scale badly in this
// sweep"; this package answers the question a continuous deployment
// asks: did the newest uploaded run make vertex V worse than its own
// history says it should be?
//
// The mechanics follow the related work's change-detection-on-dynamic-
// graphs framing: successive runs of one app at one scale are snapshots
// of the same graph, and per-vertex statistics roll forward as flat
// arrays aligned with the columnar PPG layout —
//
//   - each ingested run collapses to one merged sample per VID
//     (fit.Merge across ranks, the same cross-rank aggregation detection
//     uses), stored as a []float64 indexed by VID with NaN marking
//     vertices the run never executed;
//   - per-VID mean and variance over the history fold with Welford's
//     update, skipping NaN samples exactly as fit.Merge/fit.Variance
//     ignore NaN ranks;
//   - the newest run is scored against that baseline with a z-score
//     (sudden regression) and a one-sided CUSUM over the whole history
//     (slow drift a single z-test misses);
//   - per-vertex scaling slopes are two plain fit.FitLogLog calls over
//     each scale's latest sample, without and with the newest run.
//
// Determinism contract: a State's output is a pure function of the runs
// it holds, never of the order they were added in. Runs carry an
// explicit history sequence number (their position in the store's
// upload-ordered history), Add keeps each scale's history sorted by it,
// and every fold walks that order — so feeding a history in upload
// order or shuffled produces byte-identical EncodeJSON output, the same
// regime the scheduler determinism test enforces for simulation.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/psg"
)

// Params are the user-tunable flagging thresholds.
type Params struct {
	// ZThd flags a vertex when the newest run's merged time sits at least
	// this many baseline standard deviations above the baseline mean.
	ZThd float64
	// CUSUMThd flags a vertex when the one-sided CUSUM over the history's
	// standardized deviations reaches this value — slow drift where no
	// single run clears ZThd.
	CUSUMThd float64
	// CUSUMK is the CUSUM slack: per-run deviations below K standard
	// deviations do not accumulate, so ordinary run-to-run noise decays
	// instead of compounding.
	CUSUMK float64
	// MinRuns is the minimum number of baseline runs (newest excluded)
	// that must have sampled a vertex before it is scored at all — a
	// baseline of one run has no variance to standardize against.
	MinRuns int
	// MinShare filters vertices whose share of the newest run's total
	// time is negligible, mirroring detect.Config.MinShare.
	MinShare float64
}

// DefaultParams returns the default watch thresholds.
func DefaultParams() Params {
	return Params{ZThd: 3, CUSUMThd: 5, CUSUMK: 0.5, MinRuns: 2, MinShare: 0.01}
}

// Normalized overlays defaults on zero fields (zero means "default",
// the same convention detect.Config uses on the service wire). Watch
// applies it internally, and so does query.Watch before it builds a
// plan key, so equal resolved thresholds share one key.
func (p Params) Normalized() Params {
	def := DefaultParams()
	if p.ZThd == 0 {
		p.ZThd = def.ZThd
	}
	if p.CUSUMThd == 0 {
		p.CUSUMThd = def.CUSUMThd
	}
	if p.CUSUMK == 0 {
		p.CUSUMK = def.CUSUMK
	}
	if p.MinRuns == 0 {
		p.MinRuns = def.MinRuns
	}
	if p.MinShare == 0 {
		p.MinShare = def.MinShare
	}
	return p
}

// Sample is one ingested run reduced to its per-VID merged samples. It
// is content-addressed (derived from stored wire bytes and the compiled
// graph alone), so callers may cache Samples by store key forever.
type Sample struct {
	// NP is the run's job scale.
	NP int
	// Hash is the content hash of the stored profile set.
	Hash string
	// Elapsed is the run's wall-clock elapsed time from the wire
	// envelope.
	Elapsed float64
	// TotalTime is the summed sampled time across ranks (the share
	// denominator).
	TotalTime float64
	// Values holds the merged per-rank time per VID (ppg.Graph.Merged),
	// NaN where no rank sampled the vertex. Indexed by psg.VID — the
	// flat-array layout the columnar PPG uses. A detect reads it as a
	// smaller scale's detect.ScaleRun.Merged.
	Values []float64
}

// Ingest reduces an assembled PPG to a Sample, merging each vertex's
// per-rank times by their median. The merge argument is ignored: median is
// the one merge there is.
func Ingest(pg *ppg.Graph, hash string, elapsed float64, _ fit.MergeStrategy) *Sample {
	nv := pg.NumVIDs()
	smp := &Sample{NP: pg.NP, Hash: hash, Elapsed: elapsed, TotalTime: pg.TotalTime(), Values: make([]float64, nv)}
	for vid := range smp.Values {
		smp.Values[vid] = pg.Merged(psg.VID(vid))
	}
	return smp
}

// IngestBytes reduces profile-set wire bytes that no store key vouches
// for to a Sample, through the reader every query shares (ppg.Decode).
// The merge argument is ignored, as in Ingest.
func IngestBytes(data []byte, g *psg.Graph, hash string, _ fit.MergeStrategy) (*Sample, error) {
	pg, set, err := ppg.Decode(data, g, 0)
	if err != nil {
		return nil, err
	}
	return Ingest(pg, hash, set.Elapsed, fit.MergeMedian), nil
}

// Run is one entry of a scale's history: a Sample plus its position in
// the upload-ordered history.
type Run struct {
	// Seq is the run's position in the (app, np) history, assigned by the
	// store's upload-ordered listing. It is the canonical fold order: all
	// rolling statistics walk runs by ascending Seq.
	Seq int
	// Sample is the ingested per-VID data.
	Sample *Sample
}

// State holds the rolling baselines for one application: every ingested
// run, grouped by scale, ordered by history sequence.
type State struct {
	app   string
	keys  []string      // the graph's read-only VID -> stable key table
	verts []*psg.Vertex // the graph's read-only VID -> vertex table
	byNP  map[int][]Run
}

// NewState creates an empty state for one application. The merge
// argument is ignored, as in Ingest.
func NewState(app string, g *psg.Graph, _ fit.MergeStrategy) *State {
	return &State{app: app, keys: g.Keys(), verts: g.Vertices, byNP: map[int][]Run{}}
}

// Add inserts one run at its history position. Insertion order is
// irrelevant: the scale's history is kept sorted by Seq, with the
// content hash as a total tiebreak, and a (Seq, Hash) duplicate is a
// no-op. Samples whose VID space disagrees with the state's symbol
// table are rejected — they were ingested against a different graph.
func (s *State) Add(seq int, smp *Sample) error {
	if smp == nil {
		return fmt.Errorf("baseline: nil sample")
	}
	if len(smp.Values) != len(s.keys) {
		return fmt.Errorf("baseline: sample for np=%d has %d VIDs, state's symbol table has %d (ingested against a different graph?)",
			smp.NP, len(smp.Values), len(s.keys))
	}
	hist := s.byNP[smp.NP]
	i := sort.Search(len(hist), func(i int) bool {
		if hist[i].Seq != seq {
			return hist[i].Seq > seq
		}
		return hist[i].Sample.Hash >= smp.Hash
	})
	if i < len(hist) && hist[i].Seq == seq && hist[i].Sample.Hash == smp.Hash {
		return nil // idempotent re-add
	}
	hist = append(hist, Run{})
	copy(hist[i+1:], hist[i:])
	hist[i] = Run{Seq: seq, Sample: smp}
	s.byNP[smp.NP] = hist
	return nil
}

// NPs returns the scales with at least one run, ascending.
func (s *State) NPs() []int {
	nps := make([]int, 0, len(s.byNP))
	for np := range s.byNP {
		nps = append(nps, np)
	}
	sort.Ints(nps)
	return nps
}

// Runs returns one scale's history in fold order (ascending Seq).
func (s *State) Runs(np int) []Run { return s.byNP[np] }

// welford is the per-VID rolling mean/variance accumulator: three flat
// arrays indexed by VID, exactly the columnar layout the PPG uses for
// per-rank data.
type welford struct {
	count []int
	mean  []float64
	m2    []float64
}

func newWelford(nv int) *welford {
	return &welford{count: make([]int, nv), mean: make([]float64, nv), m2: make([]float64, nv)}
}

// add folds one run's samples in. NaN samples (vertex absent from the
// run) are skipped, mirroring fit.Merge/fit.Variance NaN semantics.
func (w *welford) add(values []float64) {
	for vid, x := range values {
		if math.IsNaN(x) {
			continue
		}
		w.count[vid]++
		delta := x - w.mean[vid]
		w.mean[vid] += delta / float64(w.count[vid])
		w.m2[vid] += delta * (x - w.mean[vid])
	}
}

// std returns the population standard deviation for one VID (0 with
// fewer than two samples, matching fit.Variance).
func (w *welford) std(vid int) float64 {
	if w.count[vid] < 2 {
		return 0
	}
	return math.Sqrt(w.m2[vid] / float64(w.count[vid]))
}

// Regression is one flagged vertex in a watch report.
type Regression struct {
	// Ref identifies the vertex (stable key plus source position).
	Ref VertexRef
	// Mean and Std are the baseline statistics over the prior runs that
	// sampled the vertex; BaselineRuns counts them.
	Mean, Std    float64
	BaselineRuns int
	// Value is the newest run's merged time; Z is its standardized
	// deviation above the baseline mean (+Inf when the baseline has zero
	// variance and the value moved).
	Value, Z float64
	// CUSUM is the one-sided cumulative sum of standardized deviations
	// over the whole history, newest run included.
	CUSUM float64
	// Share is the vertex's fraction of the newest run's total time.
	Share float64
	// SlopeOld and SlopeNew are the cross-scale log-log changing rates
	// fitted without and with the newest run (NaN when fewer than two
	// scales are available); SlopeDelta is their difference.
	SlopeOld, SlopeNew, SlopeDelta float64
}

// RunRef identifies one history entry in a report.
type RunRef struct {
	NP      int
	Seq     int
	Hash    string
	Elapsed float64
}

// Report is the output of one watch evaluation: the newest run at one
// scale scored against its rolling baseline.
type Report struct {
	// App and NP name the evaluated history.
	App string
	NP  int
	// Newest is the evaluated run (the last entry of the history).
	Newest RunRef
	// Runs is the history length at NP; BaselineRuns is Runs minus the
	// newest (what the statistics folded over).
	Runs, BaselineRuns int
	// Params are the thresholds the evaluation used (normalized).
	Params Params
	// History lists every run of the scale in fold order.
	History []RunRef
	// Vertices counts the VIDs that were scored (present in the newest
	// run with at least MinRuns baseline observations).
	Vertices int
	// Regressions lists the flagged vertices, worst first.
	Regressions []Regression
}

// Quiet reports whether the evaluation flagged nothing.
func (rep *Report) Quiet() bool { return len(rep.Regressions) == 0 }

// Watch scores the newest run at one scale against the baseline built
// from every earlier run of that scale. An empty history is an error; a
// single-run history produces a report with zero scored vertices (there
// is nothing to compare against yet) rather than an error, so a watch
// loop over a fresh store stays quiet instead of failing.
func (s *State) Watch(np int, p Params) (*Report, error) {
	hist := s.byNP[np]
	if len(hist) == 0 {
		return nil, fmt.Errorf("baseline: no runs for %s at np=%d", s.app, np)
	}
	p = p.Normalized()
	newest := hist[len(hist)-1]
	base := hist[:len(hist)-1]

	rep := &Report{
		App: s.app, NP: np,
		Newest:       runRef(newest),
		Runs:         len(hist),
		BaselineRuns: len(base),
		Params:       p,
	}
	for _, r := range hist {
		rep.History = append(rep.History, runRef(r))
	}

	w := newWelford(len(s.keys))
	for _, r := range base {
		w.add(r.Sample.Values)
	}

	total := newest.Sample.TotalTime
	for vid := range s.keys {
		x := newest.Sample.Values[vid]
		if math.IsNaN(x) || w.count[vid] < p.MinRuns {
			continue
		}
		v := s.verts[vid]
		if v != nil && v.Kind == psg.KindRoot {
			continue
		}
		rep.Vertices++
		var share float64
		if total > 0 {
			share = x / total
		}
		if share < p.MinShare {
			continue
		}
		mean, std := w.mean[vid], w.std(vid)
		z := zScore(x, mean, std)
		cusum := s.cusumAt(hist, vid, mean, std, p.CUSUMK)
		if z < p.ZThd && cusum < p.CUSUMThd {
			continue
		}
		reg := Regression{
			Ref:          s.refOf(vid),
			Mean:         mean,
			Std:          std,
			BaselineRuns: w.count[vid],
			Value:        x,
			Z:            z,
			CUSUM:        cusum,
			Share:        share,
		}
		reg.SlopeOld, reg.SlopeNew = s.slopes(np, vid)
		reg.SlopeDelta = reg.SlopeNew - reg.SlopeOld
		rep.Regressions = append(rep.Regressions, reg)
	}

	// Worst first: z-weighted share, CUSUM as the second axis, vertex key
	// as the total tiebreak — the comparator must be total or report
	// bytes would depend on sort-internal ordering.
	sort.Slice(rep.Regressions, func(i, j int) bool {
		a, b := &rep.Regressions[i], &rep.Regressions[j]
		if sa, sb := severity(a.Z)*a.Share, severity(b.Z)*b.Share; sa != sb {
			return sa > sb
		}
		if a.CUSUM != b.CUSUM {
			return a.CUSUM > b.CUSUM
		}
		return a.Ref.Key < b.Ref.Key
	})
	return rep, nil
}

// zScore standardizes one observation. A zero-variance baseline means
// every prior run agreed exactly: any upward movement is infinitely
// surprising (+Inf, which the wire format carries), and no movement is
// no signal. Downward movement never flags — faster is not a
// regression.
func zScore(x, mean, std float64) float64 {
	diff := x - mean
	if std > 0 {
		z := diff / std
		if z < 0 {
			return 0
		}
		return z
	}
	// Zero variance: compare against the mean directly, with a relative
	// epsilon so a last-ulp wobble does not read as an infinite z.
	if diff > zeroVarEps*math.Max(math.Abs(mean), 1e-9) {
		return math.Inf(1)
	}
	return 0
}

const zeroVarEps = 1e-9

// cusumAt folds the one-sided CUSUM for one VID over the whole history
// in Seq order: s_i = max(0, s_{i-1} + z_i - k). Deviations are
// standardized against the fixed baseline statistics so the fold is a
// pure function of the history set.
func (s *State) cusumAt(hist []Run, vid int, mean, std, k float64) float64 {
	var acc float64
	for _, r := range hist {
		x := r.Sample.Values[vid]
		if math.IsNaN(x) {
			continue
		}
		z := zScore(x, mean, std)
		acc += z - k
		if acc < 0 {
			acc = 0
		}
	}
	return acc
}

// slopes fits the vertex's cross-scale log-log model twice: without and
// with the newest run at watchNP. Each scale contributes its latest
// sample, in ascending np order; the "old" fit uses the previous run at
// watchNP when one exists and omits the scale otherwise. A fit that
// cannot be made (fewer than two scales sampled the vertex) is NaN.
func (s *State) slopes(watchNP, vid int) (old, new float64) {
	var oldPs, oldYs, newPs, newYs []float64
	for _, np := range s.NPs() {
		hist := s.byNP[np]
		if x := hist[len(hist)-1].Sample.Values[vid]; !math.IsNaN(x) {
			newPs, newYs = append(newPs, float64(np)), append(newYs, x)
		}
		if np == watchNP {
			hist = hist[:len(hist)-1] // the old fit predates the newest run
		}
		if len(hist) == 0 {
			continue // no prior run at this scale: the old fit omits it
		}
		if x := hist[len(hist)-1].Sample.Values[vid]; !math.IsNaN(x) {
			oldPs, oldYs = append(oldPs, float64(np)), append(oldYs, x)
		}
	}
	return slopeOf(oldPs, oldYs), slopeOf(newPs, newYs)
}

func slopeOf(ps, ys []float64) float64 {
	m, err := fit.FitLogLog(ps, ys)
	if err != nil {
		return math.NaN()
	}
	return m.B
}

// severity maps a z-score into the ranking scale, capping +Inf the same
// way detect's abnormal ranking does so Inf*0 shares cannot poison the
// sort with NaN.
func severity(z float64) float64 {
	if math.IsInf(z, 1) {
		return 100
	}
	return z
}

func (s *State) refOf(vid int) VertexRef {
	ref := VertexRef{Key: s.keys[vid]}
	if v := s.verts[vid]; v != nil {
		ref.Kind = v.Kind.String()
		ref.Name = v.Name
		ref.File = v.Pos.File
		ref.Line = v.Pos.Line
	}
	return ref
}

func runRef(r Run) RunRef {
	return RunRef{NP: r.Sample.NP, Seq: r.Seq, Hash: r.Sample.Hash, Elapsed: r.Sample.Elapsed}
}
