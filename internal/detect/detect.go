// Package detect implements ScalAna's scaling loss detection (paper §IV):
// location-aware problematic vertex detection — non-scalable vertices via
// log-log fitting across job scales, abnormal vertices via cross-process
// comparison at one scale — and the backtracking root cause algorithm
// (Algorithm 1) over the Program Performance Graph.
package detect

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/psg"
)

// Config holds the user-tunable detection parameters from paper §V.
type Config struct {
	// AbnormThd flags a vertex as abnormal when its slowest rank exceeds
	// AbnormThd times the cross-rank median (paper evaluation: 1.3).
	AbnormThd float64
	// SlopeThd is the log-log changing-rate threshold: with fixed total
	// problem size, a perfectly scaling vertex's per-rank time has slope
	// ~-1; vertices with slope above SlopeThd are non-scalable candidates.
	SlopeThd float64
	// MinShare filters vertices whose time share at the largest scale is
	// negligible ("when the execution time ... accounts for a large
	// proportion of the total time, they will become a scaling issue").
	MinShare float64
	// TopK caps the number of non-scalable vertices reported.
	TopK int
	// CommCauses additionally admits collective MPI vertices as root-cause
	// candidates when they were themselves flagged non-scalable — a
	// collective whose message volume grows with the job scale is its own
	// root cause, not the computation that happens to precede it.
	// Point-to-point vertices never qualify: their waiting time is
	// inherited from a peer, which the backtracking walk already follows.
	// Off by default: the paper's Algorithm 1 attributes causes to
	// Comp/Loop vertices only.
	CommCauses bool
}

// DefaultConfig mirrors the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{AbnormThd: 1.3, SlopeThd: -0.25, MinShare: 0.01, TopK: 10}
}

// Normalized overlays defaults on zero fields: a zero field means
// "default", so a slope threshold of exactly 0 is not expressible. Detect
// applies it, and so does query.Detect before it builds a plan key, so
// equal resolved configurations share one key.
func (c Config) Normalized() Config {
	def := DefaultConfig()
	if c.AbnormThd == 0 {
		c.AbnormThd = def.AbnormThd
	}
	if c.SlopeThd == 0 {
		c.SlopeThd = def.SlopeThd
	}
	if c.MinShare == 0 {
		c.MinShare = def.MinShare
	}
	if c.TopK == 0 {
		c.TopK = def.TopK
	}
	return c
}

// Validate rejects a configuration detection cannot run: a negative TopK
// or a NaN threshold, which no comparison would ever fail. Detect applies
// it, and so does query.Detect when it plans.
func (c Config) Validate() error {
	if c.TopK < 0 {
		return fmt.Errorf("detect: negative topk %d", c.TopK)
	}
	if math.IsNaN(c.AbnormThd) || math.IsNaN(c.SlopeThd) || math.IsNaN(c.MinShare) {
		return fmt.Errorf("detect: NaN threshold (abnorm-thd %g, slope-thd %g, min-share %g)", c.AbnormThd, c.SlopeThd, c.MinShare)
	}
	return nil
}

const (
	// waitEps is the least waiting time that counts as a wait state: the
	// backtracking walk follows a communication dependence edge only if
	// one exists (paper §IV-B).
	waitEps = 1e-6
	// maxSteps bounds one backtracking walk, which could otherwise visit
	// every (vertex, rank) pair of the largest scale.
	maxSteps = 4096
)

// ScaleRun is one profiled execution at one job scale.
type ScaleRun struct {
	// NP is the job's process count.
	NP int
	// PPG is the Program Performance Graph assembled from that job's
	// per-rank profiles.
	PPG *ppg.Graph
}

// NonScalable is one vertex whose performance scales badly with the
// process count.
type NonScalable struct {
	// VertexKey is the stable PSG key of the flagged vertex.
	VertexKey string
	// Vertex is the flagged vertex in the largest scale's PSG.
	Vertex *psg.Vertex
	// Model is the fitted log-log time-vs-np model; Model.B is the
	// changing rate compared against Config.SlopeThd.
	Model fit.LogLog
	// Share is the vertex's fraction of total time at the largest scale.
	Share float64
	// Times maps np -> merged per-rank time.
	Times map[int]float64
}

// Abnormal is one vertex whose performance differs markedly across ranks
// at the largest scale.
type Abnormal struct {
	// VertexKey is the stable PSG key of the flagged vertex.
	VertexKey string
	// Vertex is the flagged vertex.
	Vertex *psg.Vertex
	// Ratio is max over median time across ranks (may be +Inf when only
	// some ranks execute the vertex at all).
	Ratio float64
	// OutlierRanks lists the ranks exceeding the threshold.
	OutlierRanks []int
	// Share is the vertex's fraction of total time at this scale.
	Share float64
}

// StepVia says how the backtracking walk reached a step.
type StepVia string

// Step provenance values.
const (
	ViaStart   StepVia = "start"
	ViaComm    StepVia = "comm"
	ViaControl StepVia = "control"
	ViaData    StepVia = "data"
)

// PathStep is one hop of a root-cause path.
type PathStep struct {
	// VertexKey is the stable PSG key of the vertex visited by this hop.
	VertexKey string
	// Vertex is the visited vertex.
	Vertex *psg.Vertex
	// Rank is the process the walk is on at this hop.
	Rank int
	// Via says how the walk arrived here (start, comm, control, data).
	Via StepVia
	// Wait is the waiting time of the communication edge taken to leave
	// this step (0 for control/data hops).
	Wait float64
}

// Path is one backtracking walk (paper Fig. 8's colored chains).
type Path struct {
	// Steps are the hops in walk order, starting at a problematic vertex.
	Steps []PathStep
	// Cause is the root-cause candidate the walk terminated on, nil when
	// the walk exhausted its step budget without converging.
	Cause *Cause
}

// Cause is one root-cause candidate.
type Cause struct {
	// VertexKey is the stable PSG key of the candidate vertex.
	VertexKey string
	// Vertex is the candidate vertex.
	Vertex *psg.Vertex
	// Score ranks causes: time share at the largest scale times the
	// cross-rank imbalance ratio.
	Score float64
	// Share is the candidate's fraction of total time at the largest scale.
	Share float64
	// Imbalance is the candidate's cross-rank max-over-median time ratio.
	Imbalance float64
	// Paths counts the backtracking paths terminating on this cause.
	Paths int
}

// Report is the complete detection output.
type Report struct {
	// NP is the largest profiled scale; abnormal detection and
	// backtracking ran on its PPG.
	NP int
	// NonScalable lists vertices whose time scales badly with np,
	// worst (slope x share) first.
	NonScalable []NonScalable
	// Abnormal lists vertices imbalanced across ranks at the largest
	// scale, worst (ratio x share) first.
	Abnormal []Abnormal
	// Paths holds one backtracking walk per problematic vertex.
	Paths []Path
	// Causes ranks the distinct root-cause candidates by Score.
	Causes []Cause
}

// Detect runs the full pipeline over profiled runs at multiple scales.
// The largest scale's PPG hosts abnormal detection and backtracking.
// Zero cfg fields take their DefaultConfig values.
func Detect(runs []ScaleRun, cfg Config) (*Report, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("detect: no runs")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	// The fit reads a run's scale from NP, so a PPG of another size would
	// be fitted as the wrong scale.
	for _, r := range runs {
		if r.PPG == nil {
			return nil, fmt.Errorf("detect: the run given as np=%d has no PPG", r.NP)
		}
		if r.PPG.NP != r.NP {
			return nil, fmt.Errorf("detect: the run given as np=%d has a PPG of np=%d", r.NP, r.PPG.NP)
		}
	}
	sorted := append([]ScaleRun(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NP < sorted[j].NP })
	largest := sorted[len(sorted)-1]
	// Every smaller scale is read by the largest scale's VIDs, so its
	// graph must be the same program's: the same graph, or a compile of
	// it with the same symbol table.
	keys := largest.PPG.PSG.Keys()
	for _, r := range sorted[:len(sorted)-1] {
		if r.PPG.PSG != largest.PPG.PSG && !slices.Equal(r.PPG.PSG.Keys(), keys) {
			return nil, fmt.Errorf("detect: scale np=%d was profiled against another program than the largest scale, np=%d (their graphs' vertex keys differ)", r.NP, largest.NP)
		}
	}

	rep := &Report{NP: largest.NP}
	if len(sorted) >= 2 {
		rep.NonScalable = findNonScalable(sorted, cfg)
	}
	rep.Abnormal = findAbnormal(largest, cfg)
	backtrackAll(rep, largest)
	rankCauses(rep, largest, cfg)
	return rep, nil
}

// findNonScalable fits each vertex's merged time across scales and ranks
// vertices by their changing rate (paper §IV-A, Fig. 7(a)).
func findNonScalable(sorted []ScaleRun, cfg Config) []NonScalable {
	largest := sorted[len(sorted)-1]
	total := largest.PPG.TotalTime()
	if total <= 0 {
		return nil
	}
	var out []NonScalable
	for _, vid := range largest.PPG.PresentVIDs() {
		v := largest.PPG.PSG.VertexByVID(vid)
		if v == nil || v.Kind == psg.KindRoot {
			continue
		}
		var ps, ys []float64
		times := map[int]float64{}
		for _, run := range sorted {
			merged := run.PPG.Merged(vid)
			if math.IsNaN(merged) {
				continue
			}
			ps = append(ps, float64(run.NP))
			ys = append(ys, merged)
			times[run.NP] = merged
		}
		if len(ps) < 2 {
			continue
		}
		model, err := fit.FitLogLog(ps, ys)
		if err != nil {
			continue
		}
		share := largest.PPG.Total(vid) / total
		if model.B <= cfg.SlopeThd || share < cfg.MinShare {
			continue
		}
		out = append(out, NonScalable{VertexKey: v.Key, Vertex: v, Model: model, Share: share, Times: times})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Model.B*out[i].Share, out[j].Model.B*out[j].Share
		if si != sj {
			return si > sj
		}
		return out[i].VertexKey < out[j].VertexKey
	})
	if len(out) > cfg.TopK {
		out = out[:cfg.TopK]
	}
	return out
}

// findAbnormal compares each vertex's time across ranks at one scale
// (paper §IV-A, Fig. 7(b)). It reads the graph in place: a present
// vertex's times hold no NaN (the profiler sums finite periods, and the
// wire reader refuses non-numbers), so its merged time is the median of
// its times.
func findAbnormal(run ScaleRun, cfg Config) []Abnormal {
	pg := run.PPG
	total := pg.TotalTime()
	if total <= 0 {
		return nil
	}
	var out []Abnormal
	for _, vid := range pg.PresentVIDs() {
		v := pg.PSG.VertexByVID(vid)
		if v == nil || v.Kind == psg.KindRoot {
			continue
		}
		share := pg.Total(vid) / total
		if share < cfg.MinShare {
			continue
		}
		med := pg.Merged(vid)
		_, mx := slowestRank(pg, vid)
		var ratio float64
		switch {
		case med > 0:
			ratio = mx / med
		case mx > 0:
			ratio = math.Inf(1) // executed by a strict minority of ranks
		default:
			continue
		}
		if ratio <= cfg.AbnormThd {
			continue
		}
		var outliers []int
		for r := 0; r < pg.NP; r++ {
			if t := pg.PerfAt(vid, r).Time; (med > 0 && t > cfg.AbnormThd*med) || (med == 0 && t > 0) {
				outliers = append(outliers, r)
			}
		}
		out = append(out, Abnormal{VertexKey: v.Key, Vertex: v, Ratio: ratio, OutlierRanks: outliers, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := score(out[i].Ratio)*out[i].Share, score(out[j].Ratio)*out[j].Share
		if si != sj {
			return si > sj
		}
		return out[i].VertexKey < out[j].VertexKey
	})
	return out
}

func score(ratio float64) float64 {
	if math.IsInf(ratio, 1) {
		return 100
	}
	return ratio
}

// slowestRank is the rank with the largest sampled time on vid (the
// lowest such rank on a tie) and that time.
func slowestRank(pg *ppg.Graph, vid psg.VID) (rank int, t float64) {
	t = math.Inf(-1)
	for r := 0; r < pg.NP; r++ {
		if v := pg.PerfAt(vid, r).Time; v > t {
			rank, t = r, v
		}
	}
	return rank, t
}
