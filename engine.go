package scalana

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scalana/internal/detect"
	"scalana/internal/minilang"
	"scalana/internal/par"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// Engine executes profiled runs and sweeps on top of a PSG compile
// cache. The cache is keyed by (app, psg.Options), so a multi-scale
// sweep — or any set of runs sharing an app and options — parses and
// contracts the app exactly once; every execution then shares the one
// compiled graph. Sharing is safe and deterministic: compiled graphs
// are immutable during execution (indirect-call targets are
// pre-materialized by psg.Build) and vertex keys are stable, so
// profiles and detection reports are identical whether the graph is
// shared or rebuilt per run.
//
// An Engine is safe for concurrent use. The zero value is not usable;
// call NewEngine.
type Engine struct {
	mu    sync.Mutex
	cache map[compileKey]*compileEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// compileKey identifies one cached compilation. Apps are compared by
// pointer: registered apps are process-wide singletons, and distinct
// ad-hoc App values are distinct programs even when their names collide.
type compileKey struct {
	app  *App
	opts psg.Options
}

// compileEntry is one cache slot. The sync.Once gives single-flight
// semantics: concurrent first requests for a key compile once and the
// rest wait for that result (including a sticky error).
type compileEntry struct {
	once  sync.Once
	prog  *minilang.Program
	graph *psg.Graph
	err   error
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{cache: map[compileKey]*compileEntry{}}
}

// CacheStats reports compile-cache effectiveness.
type CacheStats struct {
	// Hits counts Compile calls answered from the cache (including calls
	// that waited on an in-flight compilation of the same key).
	Hits int64
	// Misses counts Compile calls that performed a compilation.
	Misses int64
	// Entries is the number of distinct (app, options) pairs cached.
	Entries int
}

// CacheStats returns a snapshot of the compile cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load(), Entries: entries}
}

// Compile is CompileOptions backed by the engine's cache. Options are
// normalized (psg.Options.Normalize) before keying, so every spelling of
// the defaults — the zero value, Options{Contract: true}, or
// DefaultOptions() — shares one cache entry.
func (e *Engine) Compile(app *App, opts psg.Options) (*minilang.Program, *psg.Graph, error) {
	if app == nil {
		return nil, nil, fmt.Errorf("scalana: Engine.Compile: app is nil")
	}
	opts = opts.Normalize()
	key := compileKey{app: app, opts: opts}
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok {
		ent = &compileEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	ent.once.Do(func() {
		ent.prog, ent.graph, ent.err = CompileOptions(app, opts)
	})
	return ent.prog, ent.graph, ent.err
}

// Run is the package-level Run with the compile phase served from the
// engine's cache.
func (e *Engine) Run(cfg RunConfig) (*RunOutput, error) {
	if err := validateRunConfig(cfg); err != nil {
		return nil, err
	}
	prog, graph, err := e.Compile(cfg.App, cfg.PSGOptions)
	if err != nil {
		return nil, err
	}
	return RunCompiled(prog, graph, cfg)
}

// SweepConfig configures a multi-scale sweep.
type SweepConfig struct {
	// Parallelism bounds how many scales execute concurrently: 0 uses one
	// worker per CPU, 1 runs the scales one at a time. It is the only
	// concurrency knob over simulation: within a run the cooperative
	// scheduler executes exactly one rank at a time (see DESIGN.md §11),
	// so rank-level parallelism does not exist and adding workers only
	// helps when the sweep has multiple scales to overlap. (Post-run
	// finalization still fans per-rank conversion across a CPU-bounded
	// pool, but that is not tunable and not simulation.) Results never
	// depend on this value: each scale is its own deterministic simulated
	// world, and runs are returned in nps order either way.
	Parallelism int
	// Prof configures the ScalAna profiler for every scale (zero value =
	// paper defaults).
	Prof prof.Config
	// Seed is applied to every run; sweeps with equal seeds are identical.
	Seed int64
	// PSGOptions overrides contraction settings (zero value = defaults).
	PSGOptions psg.Options
}

// Sweep profiles the app at every scale in nps using the engine's
// compile cache, fanning the scales out across a bounded worker pool.
// Runs are returned in nps order. A failing scale stops further scales
// from starting, and the lowest-indexed error among the scales that ran
// is returned; with Parallelism 1 that is exactly the serial loop's
// behavior.
func (e *Engine) Sweep(app *App, nps []int, cfg SweepConfig) ([]detect.ScaleRun, error) {
	if len(nps) == 0 {
		return nil, nil
	}
	return par.MapErr(len(nps), cfg.Parallelism, func(i int) (detect.ScaleRun, error) {
		out, err := e.Run(RunConfig{
			App:        app,
			NP:         nps[i],
			ToolName:   "scalana",
			Prof:       cfg.Prof,
			Seed:       cfg.Seed,
			PSGOptions: cfg.PSGOptions,
		})
		if err != nil {
			return detect.ScaleRun{}, err
		}
		return detect.ScaleRun{NP: nps[i], PPG: out.PPG()}, nil
	})
}
