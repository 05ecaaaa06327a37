package synth

// Corpus generation. Each case derives from (Seed, case index) alone:
// the per-case rng is seeded with seed + i*caseSeedStride, so case i is
// identical whether the corpus has 10 cases or 10000, and a corpus is
// reproducible byte-for-byte from its seed. No wall clock anywhere.

import (
	"fmt"
	"math/rand"
	"sort"

	"scalana/internal/psg"

	scalana "scalana"
)

// caseSeedStride decorrelates per-case seeds (a large odd constant so
// neighboring cases land far apart in the generator's state space).
const caseSeedStride = 1_000_003

// caseMinNP is the smallest scale generated cases support: defect
// parameters (affected-rank strides, slow-rank indices, token chains)
// assume at least four ranks.
const caseMinNP = 4

// GenConfig configures corpus generation.
type GenConfig struct {
	// Seed is the corpus seed; equal seeds generate identical corpora.
	Seed int64
	// Cases is the number of cases to generate.
	Cases int
	// Archetypes restricts the injected defect kinds (empty = AllDefects).
	// Case i's primary defect is Archetypes[i % len(Archetypes)], so every
	// archetype is covered evenly.
	Archetypes []DefectKind
	// Templates restricts the structural templates by name (empty = all).
	Templates []string
}

// secondDefectProb is the probability a case carries a second defect of a
// different archetype.
const secondDefectProb = 0.2

// Generate builds a labeled corpus. Every generated case is compiled
// once to validate it and to resolve each defect span to the PSG vertex
// keys inside it; a case whose span contains no vertex is a generator
// bug and fails loudly.
func Generate(cfg GenConfig) (*Corpus, error) {
	if cfg.Cases <= 0 {
		return nil, fmt.Errorf("synth: GenConfig.Cases must be positive, got %d", cfg.Cases)
	}
	kinds := cfg.Archetypes
	if len(kinds) == 0 {
		kinds = AllDefects()
	}
	var tmpls []*template
	if len(cfg.Templates) == 0 {
		tmpls = templates()
	} else {
		for _, name := range cfg.Templates {
			t := templateByName(name)
			if t == nil {
				return nil, fmt.Errorf("synth: unknown template %q", name)
			}
			tmpls = append(tmpls, t)
		}
	}
	corpus := &Corpus{Seed: cfg.Seed, Archetypes: kinds}
	for i := 0; i < cfg.Cases; i++ {
		c, err := generateCase(cfg.Seed, i, kinds, tmpls)
		if err != nil {
			return nil, err
		}
		corpus.Cases = append(corpus.Cases, c)
	}
	return corpus, nil
}

// generateCase builds case i of a corpus.
func generateCase(seed int64, i int, kinds []DefectKind, tmpls []*template) (*Case, error) {
	caseSeed := seed + int64(i)*caseSeedStride
	rng := rand.New(rand.NewSource(caseSeed))

	primary := kinds[i%len(kinds)]
	var hosts []*template
	for _, t := range tmpls {
		if t.hosts(primary) {
			hosts = append(hosts, t)
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("synth: no template hosts archetype %q", primary)
	}
	tmpl := hosts[rng.Intn(len(hosts))]

	p := params{
		iters: 5 + rng.Intn(4),
		work:  (1.2 + 2.4*rng.Float64()) * 1e8,
		bytes: 4096 << rng.Intn(3),
		ws:    262144,
	}

	// Plan the defects: the primary, plus sometimes a secondary of a
	// different archetype the template can also host. All rng draws
	// happen at planning time, in a fixed order.
	plans := []*defectPlan{planDefect(primary, p, rng)}
	if rng.Float64() < secondDefectProb {
		var others []DefectKind
		for _, k := range kinds {
			if k != primary && tmpl.hosts(k) {
				others = append(others, k)
			}
		}
		if len(others) > 0 {
			plans = append(plans, planDefect(others[rng.Intn(len(others))], p, rng))
		}
	}

	name := fmt.Sprintf("synth-%04d-%s-%s", i, tmpl.name, primary)
	e := &emitter{file: name + ".mp", p: p, defects: map[site][]*defectPlan{}}
	for _, d := range plans {
		e.defects[d.at] = append(e.defects[d.at], d)
	}
	tmpl.emit(e)

	c := &Case{
		Name:     name,
		Template: tmpl.name,
		Seed:     caseSeed,
		MinNP:    caseMinNP,
		Source:   e.source(),
		Truth:    e.truths,
	}
	// The emitter appends truths in site order (pre before iter); restore
	// plan order so Truth[0] is always the primary defect.
	sort.SliceStable(c.Truth, func(a, b int) bool {
		return planIndex(plans, c.Truth[a].Kind) < planIndex(plans, c.Truth[b].Kind)
	})

	if err := labelCase(c); err != nil {
		return nil, fmt.Errorf("synth: case %s: %w", name, err)
	}
	return c, nil
}

func planIndex(plans []*defectPlan, k DefectKind) int {
	for i, d := range plans {
		if d.gt.Kind == k {
			return i
		}
	}
	return len(plans)
}

// labelCase compiles the case and resolves each ground-truth span to the
// PSG vertex keys inside it.
func labelCase(c *Case) error {
	_, graph, err := scalana.Compile(c.App())
	if err != nil {
		return fmt.Errorf("generated program does not compile: %w", err)
	}
	for ti := range c.Truth {
		gt := &c.Truth[ti]
		var keys []string
		for _, v := range graph.Vertices {
			if v.Kind == psg.KindRoot || v.Pos.File != gt.File {
				continue
			}
			if v.Pos.Line >= gt.LineStart && v.Pos.Line <= gt.LineEnd {
				keys = append(keys, v.Key)
			}
		}
		if len(keys) == 0 {
			return fmt.Errorf("defect %s span %d-%d contains no PSG vertex (contraction smeared it?)", gt.Kind, gt.LineStart, gt.LineEnd)
		}
		sort.Strings(keys)
		gt.VertexKeys = keys
	}
	return nil
}
