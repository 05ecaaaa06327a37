package synth

// The accuracy harness: run the full pipeline (Engine sweep across
// scales -> PPG -> detect) over every case of a corpus and score the
// ranked root causes against the ground-truth labels, mirroring the
// paper's localization-accuracy evaluation.

import (
	"fmt"

	"scalana/internal/detect"
	"scalana/internal/par"
	"scalana/internal/prof"

	scalana "scalana"
)

// EvalConfig configures one accuracy evaluation.
type EvalConfig struct {
	// NPs are the job scales each case is swept across (default
	// 4, 8, 16, 32).
	NPs []int
	// Parallelism bounds how many cases evaluate concurrently (0 = one
	// worker per CPU). Results never depend on it.
	Parallelism int
	// SampleHz is the profiler sampling rate (default 5000, the rate the
	// repo's detection-quality experiments use).
	SampleHz float64
	// Detect overrides detection parameters. The zero value uses the
	// paper defaults plus CommCauses (non-scalable collectives must be
	// blamable for the collective archetype to be locatable at all).
	Detect detect.Config
	// TopK is the cause-rank cutoff for top-k metrics (default 3).
	TopK int
	// Engine optionally supplies a shared compile cache.
	Engine *scalana.Engine
}

// CausePred is one reported root cause, normalized for matching.
type CausePred struct {
	VertexKey string  `json:"vertex_key"`
	Kind      string  `json:"kind"`
	File      string  `json:"file"`
	Line      int     `json:"line"`
	Score     float64 `json:"score"`
	// Truth is the index of the ground-truth defect this cause matches,
	// or -1.
	Truth int `json:"truth"`
}

// CaseResult scores one case.
type CaseResult struct {
	Name     string       `json:"name"`
	Template string       `json:"template"`
	Kinds    []DefectKind `json:"kinds"`
	// Causes are the report's top-K causes in rank order.
	Causes []CausePred `json:"causes,omitempty"`
	// Top1Hit: the top-ranked cause matches a labeled defect.
	Top1Hit bool `json:"top1_hit"`
	// TopKHit: some top-K cause matches a labeled defect.
	TopKHit bool `json:"topk_hit"`
	// FirstHitRank is the 1-based rank of the first matching cause
	// (0 = no cause in the whole report matched).
	FirstHitRank int `json:"first_hit_rank"`
}

// KindMetrics aggregates accuracy over one archetype. Case-level
// metrics (Cases, Top1Hits, TopKHits) attribute each case to its
// primary defect; truth-level recall counts every labeled defect under
// its own kind.
type KindMetrics struct {
	Kind         DefectKind `json:"kind"`
	Cases        int        `json:"cases"`
	Top1Hits     int        `json:"top1_hits"`
	TopKHits     int        `json:"topk_hits"`
	TruthTotal   int        `json:"truth_total"`
	TruthMatched int        `json:"truth_matched"`
}

// Top1Accuracy is the archetype's top-1 localization accuracy.
func (m *KindMetrics) Top1Accuracy() float64 { return ratio(m.Top1Hits, m.Cases) }

// TopKAccuracy is the archetype's top-k localization accuracy.
func (m *KindMetrics) TopKAccuracy() float64 { return ratio(m.TopKHits, m.Cases) }

// Recall is the fraction of this archetype's labeled defects matched by
// some top-k cause.
func (m *KindMetrics) Recall() float64 { return ratio(m.TruthMatched, m.TruthTotal) }

// EvalResult is the scored evaluation of one corpus.
type EvalResult struct {
	// Scales are the job scales each case was swept across.
	Scales []int        `json:"scales"`
	TopK   int          `json:"top_k"`
	Cases  []CaseResult `json:"cases"`
	// Kinds holds per-archetype metrics in rotation order.
	Kinds []KindMetrics `json:"kinds"`
	// Top1Accuracy and TopKAccuracy are corpus-wide case-level rates.
	Top1Accuracy float64 `json:"top1_accuracy"`
	TopKAccuracy float64 `json:"topk_accuracy"`
	// Precision is matched top-K predictions over all top-K predictions;
	// Recall is matched labeled defects over all labeled defects.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// DefaultEvalConfig returns the evaluation defaults.
func DefaultEvalConfig() EvalConfig {
	dcfg := detect.DefaultConfig()
	dcfg.CommCauses = true
	return EvalConfig{
		NPs:      []int{4, 8, 16, 32},
		SampleHz: 5000,
		Detect:   dcfg,
		TopK:     3,
	}
}

func (cfg EvalConfig) withDefaults() EvalConfig {
	def := DefaultEvalConfig()
	if len(cfg.NPs) == 0 {
		cfg.NPs = def.NPs
	}
	if cfg.SampleHz == 0 {
		cfg.SampleHz = def.SampleHz
	}
	if cfg.Detect == (detect.Config{}) {
		cfg.Detect = def.Detect
	}
	if cfg.TopK == 0 {
		cfg.TopK = def.TopK
	}
	if cfg.Engine == nil {
		cfg.Engine = scalana.NewEngine()
	}
	return cfg
}

// Evaluate sweeps every case of the corpus across the configured scales,
// runs detection, and scores the ranked causes against ground truth.
// Every run is seeded with the corpus seed, so one seed drives generation
// and simulation alike.
// Cases fan out across a bounded worker pool; each case's own sweep runs
// its scales serially so the pool is the only source of parallelism.
func Evaluate(corpus *Corpus, cfg EvalConfig) (*EvalResult, error) {
	if len(corpus.Cases) == 0 {
		return nil, fmt.Errorf("synth: empty corpus")
	}
	for i, c := range corpus.Cases {
		if c == nil || c.Name == "" || c.Source == "" {
			return nil, fmt.Errorf("synth: corpus case %d is incomplete", i)
		}
		if len(c.Truth) == 0 {
			return nil, fmt.Errorf("synth: case %s carries no ground truth", c.Name)
		}
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("synth: negative top-k %d", cfg.TopK)
	}
	cfg = cfg.withDefaults()
	profCfg := prof.DefaultConfig()
	profCfg.SampleHz = cfg.SampleHz

	results, err := par.MapErr(len(corpus.Cases), cfg.Parallelism, func(i int) (CaseResult, error) {
		c := corpus.Cases[i]
		runs, err := cfg.Engine.Sweep(c.App(), cfg.NPs, scalana.SweepConfig{
			Parallelism: 1,
			Prof:        profCfg,
			Seed:        corpus.Seed,
		})
		if err != nil {
			return CaseResult{}, fmt.Errorf("synth: sweep %s: %w", c.Name, err)
		}
		rep, err := detect.Detect(runs, cfg.Detect)
		if err != nil {
			return CaseResult{}, fmt.Errorf("synth: detect %s: %w", c.Name, err)
		}
		return scoreCase(c, rep, cfg.TopK), nil
	})
	if err != nil {
		return nil, err
	}

	res := &EvalResult{TopK: cfg.TopK, Cases: results, Scales: append([]int(nil), cfg.NPs...)}
	aggregate(res, corpus)
	return res, nil
}

// scoreCase matches a report's ranked causes against the case's labels.
func scoreCase(c *Case, rep *detect.Report, topK int) CaseResult {
	cr := CaseResult{Name: c.Name, Template: c.Template, Kinds: c.Kinds()}
	for rank, cause := range rep.Causes {
		pred := CausePred{
			VertexKey: cause.VertexKey,
			Score:     cause.Score,
			Truth:     -1,
		}
		if cause.Vertex != nil {
			pred.Kind = cause.Vertex.Kind.String()
			pred.File = cause.Vertex.Pos.File
			pred.Line = cause.Vertex.Pos.Line
		}
		for ti := range c.Truth {
			if c.Truth[ti].Covers(pred.VertexKey, pred.File, pred.Line) {
				pred.Truth = ti
				break
			}
		}
		if pred.Truth >= 0 && cr.FirstHitRank == 0 {
			cr.FirstHitRank = rank + 1
		}
		if rank < topK {
			cr.Causes = append(cr.Causes, pred)
		}
	}
	cr.Top1Hit = cr.FirstHitRank == 1
	cr.TopKHit = cr.FirstHitRank >= 1 && cr.FirstHitRank <= topK
	return cr
}

// aggregate fills the per-archetype and corpus-wide metrics.
func aggregate(res *EvalResult, corpus *Corpus) {
	declared := corpus.Archetypes
	if len(declared) == 0 {
		declared = AllDefects()
	}
	// Deduplicate while preserving rotation order: res.Kinds gets one row
	// per archetype even if the corpus declares one twice.
	var kinds []DefectKind
	byKind := map[DefectKind]*KindMetrics{}
	for _, k := range declared {
		if byKind[k] == nil {
			byKind[k] = &KindMetrics{Kind: k}
			kinds = append(kinds, k)
		}
	}
	kindOf := func(k DefectKind) *KindMetrics {
		m := byKind[k]
		if m == nil {
			m = &KindMetrics{Kind: k}
			byKind[k] = m
			kinds = append(kinds, k)
		}
		return m
	}

	var top1, topk, predTotal, predMatched, truthTotal, truthMatched int
	for i := range res.Cases {
		cr := &res.Cases[i]
		c := corpus.Cases[i]
		m := kindOf(cr.Kinds[0])
		m.Cases++
		if cr.Top1Hit {
			m.Top1Hits++
			top1++
		}
		if cr.TopKHit {
			m.TopKHits++
			topk++
		}
		matched := map[int]bool{}
		for _, pred := range cr.Causes {
			predTotal++
			if pred.Truth >= 0 {
				predMatched++
				matched[pred.Truth] = true
			}
		}
		for ti := range c.Truth {
			tm := kindOf(c.Truth[ti].Kind)
			tm.TruthTotal++
			truthTotal++
			if matched[ti] {
				tm.TruthMatched++
				truthMatched++
			}
		}
	}
	for _, k := range kinds {
		res.Kinds = append(res.Kinds, *byKind[k])
	}
	res.Top1Accuracy = ratio(top1, len(res.Cases))
	res.TopKAccuracy = ratio(topk, len(res.Cases))
	res.Precision = ratio(predMatched, predTotal)
	res.Recall = ratio(truthMatched, truthTotal)
}
