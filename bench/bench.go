// Package bench is the repository's end-to-end benchmark: four workloads
// that each stress a different part of the pipeline, eight end-to-end
// metrics a user of the system would see, and a traced mode that times
// every layer from outside, around calls into its public functions.
//
// Work is a fixed op count, never a time box: --seconds only sizes the
// count (ops = base count × seconds/30, the base calibrated to ~30 s on
// the 2-core reference box), so two commits and every repeat do
// identical work and the count metrics repeat exactly. The timed section
// is twenty blocks of the same ops, and the time metrics are read from the
// quietest block. Load is one closed loop on one goroutine; every
// parallelism knob is 1.
//
// README.md in this directory explains the workloads, the metrics, how
// they interact and how to compare two sets of runs.
package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// referenceSeconds is the timed-section length the base op counts were
// calibrated to on the reference box; --seconds/referenceSeconds is the
// one recorded factor every count is scaled by.
const referenceSeconds = 30

// setups is how many times an untraced run sets the workload up; setup_s
// is the median, and the last instance is the one measured on.
const setups = 3

// traceBlocks is how many untraced and traced blocks a traced run
// alternates, so that both halves see the same stretch of the input
// stream (a growing history) and the same spells of the box.
const traceBlocks = 5

// Config selects and sizes one run.
type Config struct {
	Workload string
	// Seed derives every generated input; the program under test only
	// ever sees the inputs.
	Seed int64
	// Seconds sizes the fixed op count (see referenceSeconds).
	Seconds float64
	// Trace runs a fifth of the ops untraced and a fifth with spans
	// around each layer, in alternating blocks, and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// TmpDir is where stores are created ("" = os.TempDir()).
	TmpDir string
	// TraceDir receives trace-<workload>.json ("" = not written).
	TraceDir string
	// UpdateGolden, when set, is the directory the run's output digests are
	// written to as the seed's golden file, in place of being checked.
	UpdateGolden string
	// Log receives the human-readable report (nil discards).
	Log io.Writer
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Header records what a result was measured on.
type Header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Factor     float64 `json:"count_factor"`
	Ops        int     `json:"ops"`
	Blocks     int     `json:"blocks"`
	WarmupOps  int     `json:"warmup_ops"`
	Samples    int     `json:"op_p50_samples"`
	Setups     int     `json:"setups"`
	Trace      bool    `json:"trace"`
	Golden     string  `json:"golden"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	FirstError string  `json:"first_error,omitempty"`
}

// Result is one run: the driver's four keys plus the header.
type Result struct {
	Header    Header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// opResult is what one op hands back for checking.
type opResult struct {
	// key names which distinct output this is: ops with equal keys have
	// equal inputs and must produce equal bytes.
	key string
	out []byte
	// hit counts toward answer_accuracy (defined per workload).
	hit bool
	err error
	// compileMisses is how many compilations the engine ran for this op.
	compileMisses int64
}

// env is what a workload's set-up gets.
type env struct {
	seed int64
	// ops is how many op indices the run uses, from 0.
	ops int
	tmp string
	// tr records set-up spans in a traced run; nil otherwise.
	tr *tracer
}

// instance is one set-up workload. op runs operation i of the workload's
// stream; with a tracer it also records spans and replays the layers
// the op went through. rewind puts back the state set-up left, for a
// workload whose ops change it. finish verifies end state after the last
// op.
type instance interface {
	op(i int, tr *tracer) opResult
	rewind() error
	finish(tr *tracer) error
	close()
}

// opCounts sizes a run: the timed section is blocks blocks of per ops,
// every block the ops 0 … per-1 over again; the warm-up before it is the
// ops 0 … 2·per-1 (10 % of the op count).
func (w *workload) opCounts(seconds float64) (blocks, per int) {
	ops := max(int(math.Round(float64(w.baseOps)*seconds/referenceSeconds)), 1)
	blocks = min(sectionBlocks, ops)
	per = ops / blocks
	if w.roundTo > 0 && per >= w.roundTo {
		per = per / w.roundTo * w.roundTo
	}
	return blocks, per
}

// tracedOps sizes a traced run: blocks untraced and blocks traced blocks
// of per ops each, alternating, a fifth of the op count either way; then
// wide untraced ops with two Ps.
func tracedOps(ops int) (blocks, per, wide int) {
	n := max(ops/5, 1)
	blocks = min(traceBlocks, n)
	per = n / blocks
	return blocks, per, max(n/2, 1)
}

// checker counts failed ops: an error, or output bytes that differ from
// the golden digest or from an earlier op with the same input.
type checker struct {
	golden    map[string][sha256.Size]byte
	first     map[string][sha256.Size]byte
	attempted int
	failed    int
	hits      int
	firstErr  string
}

func (c *checker) check(i int, r opResult) {
	c.attempted++
	if r.err == nil {
		d := sha256.Sum256(r.out)
		if want, ok := c.golden[r.key]; ok && want != d {
			r.err = fmt.Errorf("output %q differs from the golden digest", r.key)
		} else if f, ok := c.first[r.key]; !ok {
			c.first[r.key] = d
		} else if f != d {
			r.err = fmt.Errorf("output %q differs from an earlier op with the same input", r.key)
		}
	}
	if r.err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("op %d: %v", i, r.err)
		}
		return
	}
	if r.hit {
		c.hits++
	}
}

// finalState counts a failed end-of-run verification as one failed op.
func (c *checker) finalState(err error) {
	if err == nil {
		return
	}
	c.failed++
	if c.firstErr == "" {
		c.firstErr = "final state: " + err.Error()
	}
}

// sectionBlocks is how many blocks of equal work the timed section is
// made of. Neighbours on the box slow memory-bound code by 20-80 % in
// bursts of under a second, for minutes on end, and never speed it up
// (README.md, noise rules). So every time metric is read per block and
// reported from the quietest block: a mean or a median over the whole
// section carries the bursts, while one block in twenty usually escapes
// them.
const sectionBlocks = 20

// section is the measurement of one run of consecutive ops.
type section struct {
	samplesMS []float64
	wallS     float64
	cpuMS     float64
	// peakRSSMB is the process's resident-set high-water mark at the end of
	// the section, restarted at its beginning where the kernel lets us.
	peakRSSMB float64
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcPauseNS uint64
	// compileMisses sums the ops' engine compilations.
	compileMisses int64
}

// add appends the measurement of a later section.
func (s *section) add(b section) {
	s.samplesMS = append(s.samplesMS, b.samplesMS...)
	s.wallS += b.wallS
	s.cpuMS += b.cpuMS
	s.peakRSSMB = max(s.peakRSSMB, b.peakRSSMB)
	s.mallocs += b.mallocs
	s.allocB += b.allocB
	s.gcCycles += b.gcCycles
	s.gcPauseNS += b.gcPauseNS
	s.compileMisses += b.compileMisses
}

// runSection times ops [from, from+n) one after another on this
// goroutine. The per-op sample covers the op alone; checking its output
// happens between samples.
func runSection(inst instance, tr *tracer, chk *checker, from, n int) section {
	s := section{samplesMS: make([]float64, n)}
	runtime.GC()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	for k := 0; k < n; k++ {
		start := time.Now()
		r := inst.op(from+k, tr)
		s.samplesMS[k] = float64(time.Since(start)) / 1e6
		s.compileMisses += r.compileMisses
		chk.check(from+k, r)
	}
	s.wallS = time.Since(t0).Seconds()
	s.cpuMS = float64(cpuTime()-cpu0) / 1e6
	s.peakRSSMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	return s
}

// quietBlock picks the best of one value per block.
func quietBlock(perBlock []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(perBlock)
	}
	return slices.Min(perBlock)
}

// blockValues reads one number off each block.
func blockValues(blocks []section, f func(*section) float64) []float64 {
	out := make([]float64, len(blocks))
	for i := range blocks {
		out[i] = f(&blocks[i])
	}
	return out
}

func blockOpP50(b *section) float64    { return median(b.samplesMS) }
func blockOpsPerS(b *section) float64  { return float64(len(b.samplesMS)) / b.wallS }
func blockCPUPerOp(b *section) float64 { return b.cpuMS / float64(len(b.samplesMS)) }
func blockPeakRSS(b *section) float64  { return b.peakRSSMB }

// endToEndMetrics are the eight numbers of an untraced run.
func endToEndMetrics(blocks []section, setupS []float64, chk *checker) map[string]Metric {
	var all section
	for _, b := range blocks {
		all.add(b)
	}
	n := float64(len(all.samplesMS))
	return map[string]Metric{
		"setup_s":         {median(setupS), "s"},
		"op_p50_ms":       {quietBlock(blockValues(blocks, blockOpP50), "lower"), "ms"},
		"ops_per_s":       {quietBlock(blockValues(blocks, blockOpsPerS), "higher"), "1/s"},
		"cpu_ms_per_op":   {quietBlock(blockValues(blocks, blockCPUPerOp), "lower"), "ms"},
		"allocs_per_op":   {float64(all.mallocs) / n, "count"},
		"alloc_mb_per_op": {float64(all.allocB) / n / 1e6, "MB"},
		"peak_rss_mb":     {median(blockValues(blocks, blockPeakRSS)), "MB"},
		"answer_accuracy": {float64(chk.hits) / n, "ratio"},
	}
}

// Run sets the workload up, runs its fixed op count and returns the
// metrics: end-to-end ones untraced, per-layer ones with cfg.Trace.
func Run(cfg Config) (*Result, error) {
	w := lookupWorkload(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", cfg.Workload, strings.Join(WorkloadNames(), ", "))
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: --seconds must be positive, got %g", cfg.Seconds)
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	nsetups := setups
	var tr *tracer
	if cfg.Trace {
		nsetups = 1 // setup_s is an end-to-end metric; a traced run does not report it
		tr = newTracer()
	}
	// One P: at GOMAXPROCS=2 the simulator's baton handoff between rank
	// goroutines crosses OS threads, which on the reference box costs 2-3x
	// per sweep and swings by as much between runs (README.md, noise rules).
	// A traced run ends with ops at two Ps, so that cost stays in sight.
	const procs = 1
	runtime.GOMAXPROCS(procs)

	blocks, per := w.opCounts(cfg.Seconds)
	ops, warm := blocks*per, 2*per
	total := warm // how many op indices the run uses
	tblocks, tper, wide := tracedOps(ops)
	if cfg.Trace {
		total = warm + 2*tblocks*tper + wide
	}
	var golden map[string][sha256.Size]byte
	if cfg.UpdateGolden == "" {
		golden = loadGolden(w.name, cfg.Seed)
	}
	hdr := Header{
		Workload: w.name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Factor: cfg.Seconds / referenceSeconds, Ops: ops, WarmupOps: warm,
		Setups: nsetups, Trace: cfg.Trace, Golden: "absent",
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		GitSHA: gitSHA(),
	}
	if golden != nil {
		hdr.Golden = "present"
	}
	fmt.Fprintf(logw, "workload %s: seed %d, count factor %.4g, %d ops (%d blocks of %d) after %d warm-up ops, golden: %s\n",
		w.name, cfg.Seed, hdr.Factor, ops, blocks, per, warm, hdr.Golden)

	// Set-up: inputs, compile, store population and the warm-up, several
	// times over so that setup_s is a median; the last one is measured on.
	// Each earlier instance is closed and its memory returned before the
	// next is built, so that no set-up runs on top of another's garbage.
	var inst instance
	setupS := make([]float64, 0, nsetups)
	for k := 0; k < nsetups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(env{seed: cfg.Seed, ops: total, tmp: cfg.TmpDir, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("bench: set up %s: %w", w.name, err)
		}
		for i := 0; i < warm; i++ {
			if r := inst.op(i, nil); r.err != nil {
				inst.close()
				return nil, fmt.Errorf("bench: %s warm-up op %d: %w", w.name, i, r.err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	chk := &checker{golden: golden, first: map[string][sha256.Size]byte{}}
	res := &Result{Header: hdr}
	if !cfg.Trace {
		// Every block is the same ops from the state set-up left, so the
		// blocks are the same work and their times can be ranked.
		secs := make([]section, blocks)
		var timed float64
		for b := range secs {
			if err := inst.rewind(); err != nil {
				return nil, fmt.Errorf("bench: rewind %s: %w", w.name, err)
			}
			secs[b] = runSection(inst, nil, chk, 0, per)
			timed += secs[b].wallS
		}
		chk.finalState(inst.finish(nil))
		res.Header.Blocks, res.Header.Samples = blocks, per
		res.Metrics = endToEndMetrics(secs, setupS, chk)
		fmt.Fprintf(logw, "timed section %.2f s in %d blocks of %d ops, set-ups %v s\n", timed, blocks, per, setupS)
		fmt.Fprintf(logw, "by block (an unsteady box shows here):\n  op_p50_ms%s\n  ops_per_s%s\n  cpu_ms_per_op%s\n  peak_rss_mb%s\n",
			fmtBlocks(blockValues(secs, blockOpP50)), fmtBlocks(blockValues(secs, blockOpsPerS)), fmtBlocks(blockValues(secs, blockCPUPerOp)), fmtBlocks(blockValues(secs, blockPeakRSS)))
	} else {
		// A traced run does not rewind: its op indices run on, so a history
		// that grows keeps growing and the layers' slopes can be read.
		var plain, traced section
		at := warm
		for b := 0; b < tblocks; b++ {
			plain.add(runSection(inst, nil, chk, at, tper))
			traced.add(runSection(inst, tr, chk, at+tper, tper))
			at += 2 * tper
		}
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
		twoP := runSection(inst, nil, chk, at, wide)
		runtime.GOMAXPROCS(procs)
		chk.finalState(inst.finish(tr))
		res.Header.Samples = tblocks * tper
		res.Metrics = layerMetrics(tr, plain, traced, twoP)
		printStages(logw, tr, res.Metrics, median(plain.samplesMS))
		if cfg.TraceDir != "" {
			if err := tr.write(filepath.Join(cfg.TraceDir, "trace-"+w.name+".json")); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Header.FirstError = chk.firstErr
	acc := float64(chk.hits) / float64(chk.attempted)
	res.Correct = chk.failed == 0 && acc >= w.minAccuracy
	if chk.firstErr != "" {
		fmt.Fprintf(logw, "first failure: %s\n", chk.firstErr)
	}
	if cfg.UpdateGolden != "" {
		if !res.Correct {
			return nil, fmt.Errorf("bench: not recording goldens of an incorrect run: %s", chk.firstErr)
		}
		if err := writeGolden(cfg.UpdateGolden, w.name, cfg.Seed, chk.first); err != nil {
			return nil, err
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(logw, "  %-28s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	samples := "samples a block"
	if cfg.Trace {
		samples = "untraced samples"
	}
	fmt.Fprintf(logw, "  %-28s %d of %d ops failed, answer accuracy %.4f (floor %.2f), op_p50_ms over %d %s\n",
		"correctness", chk.failed, chk.attempted, acc, w.minAccuracy, res.Header.Samples, samples)
	return res, nil
}

func fmtBlocks(v []float64) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

// DriverLine renders the one JSON object the driver reads from the last
// line of standard output: exactly correct, attempted, failed, metrics.
func (r *Result) DriverLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// AppendTo appends the result, header included, as one line of a result
// file — the input of Compare.
func (r *Result) AppendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func gitSHA() string {
	if sha := os.Getenv("SCALANA_BENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of
// this process at its current resident set (Linux 4.0 on), so that every
// block's peak is read on its own and one overshoot of the collector
// during set-up is not the whole run's reading. The file is a control of
// the process itself, nothing on disk. Where it cannot be written the
// mark keeps counting from process start, set-ups included.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile (0 < q < 1) of values the way Python's
// statistics.quantiles does by default (the exclusive method), so
// quartiles printed here match the driver's.
func quantile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(values []float64) float64 { return quantile(values, 0.5) }
