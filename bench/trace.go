package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"scalana/internal/fit"
)

// Span is one timed call into a layer, recorded from this package
// around the layer's public function. Spans of one op share Op; set-up
// spans carry Op -1. Replay marks a span that re-runs, on the same
// input, a call the op already made inside another span (a handler, a
// profiled run), so that the inner layer gets a time of its own.
type Span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Replay  bool   `json:"replay,omitempty"`
	Arg     int    `json:"arg,omitempty"` // np of a run, history length of a watch
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and exact counts in memory until the run ends. A
// nil tracer runs the function and records nothing, so set-up code can
// call it unconditionally.
type tracer struct {
	t0     time.Time
	spans  []Span
	cur    int // innermost open span, -1 at top level
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, counts: map[string]float64{}}
}

func (t *tracer) record(name string, op, arg int, replay bool, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Op: op, ID: id, Parent: t.cur, Replay: replay, Arg: arg})
	parent := t.cur
	t.cur = id
	t.spans[id].StartNS = int64(time.Since(t.t0))
	fn()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.cur = parent
}

// do times a call the op itself makes; replay times a re-run.
func (t *tracer) do(name string, op, arg int, fn func())     { t.record(name, op, arg, false, fn) }
func (t *tracer) replay(name string, op, arg int, fn func()) { t.record(name, op, arg, true, fn) }

// count adds to an exact counter.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []Span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perOp sums the durations (ms) of the matching spans by op.
func (t *tracer) perOp(match func(*Span) bool) map[int]float64 {
	out := map[int]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; match(s) {
			out[s.Op] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	return out
}

// opMedian is the median over ops of the per-op sums; a stage that only
// ran during set-up (op -1) reports that one time.
func opMedian(perOp map[int]float64) float64 {
	var vals []float64
	for op, v := range perOp {
		if op >= 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		if v, ok := perOp[-1]; ok {
			return v
		}
		return 0
	}
	return median(vals)
}

func named(name string) func(*Span) bool {
	return func(s *Span) bool { return s.Name == name }
}

// stageSpans maps each per-layer time metric to the span it is read from.
var stageSpans = []struct{ metric, span string }{
	{"minilang.parse_ms", "minilang.parse"},
	{"psg.build_ms", "psg.build"},
	{"vm.compile_ms", "vm.compile"},
	{"mpisim.bare_run_ms", "mpisim.bare_run"},
	{"prof.encode_ms", "prof.encode"},
	{"prof.decode_ms", "prof.decode"},
	{"ppg.build_ms", "ppg.build"},
	{"detect.detect_ms", "detect.detect"},
	{"detect.encode_ms", "detect.encode"},
	{"store.put_ms", "store.put"},
	{"store.history_ms", "store.history"},
	{"store.get_ms", "store.get"},
	{"baseline.ingest_ms", "baseline.ingest"},
	{"baseline.watch_ms", "baseline.watch"},
	{"baseline.encode_ms", "baseline.encode"},
	{"serve.detect_ms", "serve.detect"},
	{"serve.upload_ms", "serve.upload"},
	{"serve.watch_ms", "serve.watch"},
	{"synth.generate_ms", "synth.generate"},
}

// perOpCounts are exact counters reported per traced op; totalCounts are
// reported as they stand at the end of the run.
var (
	perOpCounts = []struct{ metric, unit string }{
		{"mpisim.virtual_s", "s"},
		{"prof.storage_bytes", "B"},
		{"prof.wire_bytes", "B"},
		{"ppg.edges", "count"},
		{"detect.causes", "count"},
		{"detect.report_bytes", "B"},
	}
	totalCounts = []struct{ metric, unit string }{
		{"store.disk_mb", "MB"},
		{"baseline.history_len", "count"},
		{"baseline.flagged", "count"},
		{"serve.detect_computes", "count"},
		{"serve.sample_ingests", "count"},
		{"serve.baseline_samples", "count"},
	}
)

// logLogSlope fits y = a·x^b over the spans' (Arg, median duration) and
// returns b, or 0 when there are fewer than two distinct x.
func (t *tracer) logLogSlope(name string) float64 {
	byArg := map[int][]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Op >= 0 && s.Arg > 0 {
			byArg[s.Arg] = append(byArg[s.Arg], float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	if len(byArg) < 2 {
		return 0
	}
	args := make([]int, 0, len(byArg))
	for a := range byArg {
		args = append(args, a)
	}
	sort.Ints(args)
	xs, ys := make([]float64, len(args)), make([]float64, len(args))
	for i, a := range args {
		xs[i], ys[i] = float64(a), median(byArg[a])
	}
	m, err := fit.FitLogLog(xs, ys)
	if err != nil {
		return 0
	}
	return m.B
}

// layerMetrics derives every per-layer metric from the spans and counts
// of the traced blocks and the samples of the untraced ones; twoP is the
// untraced section run with two Ps. A metric whose layer the workload
// never enters reads 0.
func layerMetrics(t *tracer, plain, traced, twoP section) map[string]Metric {
	n := float64(len(traced.samplesMS))
	out := map[string]Metric{}
	for _, s := range stageSpans {
		out[s.metric] = Metric{opMedian(t.perOp(named(s.span))), "ms"}
	}
	for _, c := range perOpCounts {
		out[c.metric] = Metric{t.counts[c.metric] / n, c.unit}
	}
	for _, c := range totalCounts {
		out[c.metric] = Metric{t.counts[c.metric], c.unit}
	}
	// The traced op compiles by hand; the engine's own count comes from
	// the untraced section.
	out["engine.compile_misses"] = Metric{float64(plain.compileMisses) / n, "count"}

	// The profiler's cost is what a profiled run takes beyond the bare
	// run of the same program and the PPG assembly that ends it.
	run := t.perOp(named("scalana.run"))
	bare := t.perOp(named("mpisim.bare_run"))
	build := t.perOp(named("ppg.build"))
	over := map[int]float64{}
	for op, v := range run {
		over[op] = v - bare[op] - build[op]
	}
	out["prof.overhead_ms"] = Metric{opMedian(over), "ms"}
	out["prof.overhead_ratio"] = Metric{ratio(opMedian(over), opMedian(bare)), "ratio"}
	out["prof.perturb_ratio"] = Metric{ratio(t.counts["prof.perturb_s"], t.counts["prof.clock_s"]), "ratio"}
	out["mpisim.np_slope"] = Metric{t.logLogSlope("mpisim.bare_run"), "slope"}
	out["baseline.watch_slope"] = Metric{t.logLogSlope("serve.watch"), "slope"}

	// A handler's self time is its span minus the replayed calls into the
	// layers below it, on the same input.
	handlers := t.perOp(func(s *Span) bool { return !s.Replay && strings.HasPrefix(s.Name, "serve.") })
	children := t.perOp(func(s *Span) bool { return s.Replay })
	self := map[int]float64{}
	for op, v := range handlers {
		self[op] = v - children[op]
	}
	out["serve.self_ms"] = Metric{opMedian(self), "ms"}

	untraced := median(plain.samplesMS)
	out["bench.op_min_ms"] = Metric{slices.Min(plain.samplesMS), "ms"}
	out["bench.op_p90_ms"] = Metric{quantile(plain.samplesMS, 0.9), "ms"}
	out["bench.op_max_ms"] = Metric{slices.Max(plain.samplesMS), "ms"}
	out["bench.gc_cycles_per_op"] = Metric{float64(plain.gcCycles) / n, "count"}
	out["bench.gc_pause_ms_per_op"] = Metric{float64(plain.gcPauseNS) / 1e6 / n, "ms"}
	out["bench.op_p50_2p_ms"] = Metric{median(twoP.samplesMS), "ms"}
	out["bench.trace_overhead_ratio"] = Metric{ratio(median(traced.samplesMS), untraced), "ratio"}
	out["bench.stage_sum_ratio"] = Metric{ratio(opMedian(t.stageSum()), untraced), "ratio"}
	return out
}

// stageSum is, per op, the time of the spans on the op's own path: every
// span directly under the op's root that is not a replay.
func (t *tracer) stageSum() map[int]float64 {
	return t.perOp(func(s *Span) bool {
		return !s.Replay && s.Op >= 0 && s.Parent >= 0 && t.spans[s.Parent].Name == "op"
	})
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printStages prints the stage table of a traced run: each layer's time
// per op, and how the stages on the op's path add up against the
// untraced median.
func printStages(w io.Writer, t *tracer, metrics map[string]Metric, untracedMS float64) {
	fmt.Fprintf(w, "stage table (ms per op, median over traced ops):\n")
	for _, s := range stageSpans {
		if v := metrics[s.metric].Value; v != 0 {
			fmt.Fprintf(w, "  %-22s %10.3f\n", s.span, v)
		}
	}
	for _, name := range []string{"prof.overhead_ms", "serve.self_ms"} {
		if v := metrics[name].Value; v != 0 {
			fmt.Fprintf(w, "  %-22s %10.3f\n", name[:len(name)-3], v)
		}
	}
	sum := opMedian(t.stageSum())
	fmt.Fprintf(w, "  Σ stages on the op's path %.3f ms ÷ untraced op_p50_ms %.3f = %.3f\n", sum, untracedMS, ratio(sum, untracedMS))
}
