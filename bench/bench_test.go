package bench

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

// tinySeconds sizes the self-test's runs: one sweep-zeusmp op, a few
// dozen of the cheap ones.
const tinySeconds = 0.15

func loadTestManifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := LoadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestShape holds BENCHMARK.json to the limits the driver
// refuses a benchmark for, and to the workloads the code defines.
func TestManifestShape(t *testing.T) {
	m := loadTestManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, s MetricSpec, bounded bool) {
		if !name.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("%s metric name %q is malformed or repeated", kind, s.Name)
		}
		seen[s.Name] = true
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is malformed", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if bounded && (s.Bound < 0 || s.Bound > 0.25) {
			t.Errorf("%s: bound %g outside [0, 0.25]", s.Name, s.Bound)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup *MetricSpec
	for i, s := range m.EndToEnd {
		check("end-to-end", s, true)
		if s.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	for _, s := range m.PerLayer {
		check("per-layer", s, false)
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	} else {
		for _, s := range m.EndToEnd {
			if s.Bound > setup.Bound {
				t.Errorf("setup_s has bound %g but %s has the larger %g", setup.Bound, s.Name, s.Bound)
			}
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	if got, want := strings.Join(names, " "), strings.Join(WorkloadNames(), " "); got != want {
		t.Errorf("manifest workloads %q, code defines %q", got, want)
	}
}

func checkEmitted(t *testing.T, res *Result, specs []MetricSpec) {
	t.Helper()
	for _, s := range specs {
		got, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Header.Workload, s.Name)
		} else if got.Unit != s.Unit {
			t.Errorf("%s: metric %s has unit %q, manifest says %q", res.Header.Workload, s.Name, got.Unit, s.Unit)
		} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: metric %s = %v", res.Header.Workload, s.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, manifest names %d", res.Header.Workload, len(res.Metrics), len(specs))
	}
}

// TestWorkloadsEndToEnd runs every workload twice at a tiny count factor
// and holds the runs to: no failed op, every end-to-end metric of the
// manifest emitted with its unit and never zero, and counts that repeat.
func TestWorkloadsEndToEnd(t *testing.T) {
	m := loadTestManifest(t)
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]*Result
			for i := range runs {
				res, err := Run(Config{Workload: name, Seed: 1, Seconds: tinySeconds, TmpDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run %d: correct=%v, %d of %d ops failed: %s", i, res.Correct, res.Failed, res.Attempted, res.Header.FirstError)
				}
				checkEmitted(t, res, m.EndToEnd)
				for _, s := range m.EndToEnd {
					if res.Metrics[s.Name].Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", s.Name)
					}
				}
				runs[i] = res
			}
			a, b := runs[0].Metrics, runs[1].Metrics
			if a["answer_accuracy"] != b["answer_accuracy"] {
				t.Errorf("answer_accuracy %v then %v", a["answer_accuracy"].Value, b["answer_accuracy"].Value)
			}
			if d := math.Abs(a["allocs_per_op"].Value-b["allocs_per_op"].Value) / a["allocs_per_op"].Value; d > 0.02 {
				t.Errorf("allocs_per_op %v then %v: %.1f%% apart", a["allocs_per_op"].Value, b["allocs_per_op"].Value, 100*d)
			}
		})
	}
}

// TestSecondSeed runs a seed that has no goldens: outputs are then
// checked against repeats within the run only.
func TestSecondSeed(t *testing.T) {
	res, err := Run(Config{Workload: "corpus-accuracy", Seed: 2, Seconds: 2 * tinySeconds, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Golden != "absent" || !res.Correct || res.Failed != 0 {
		t.Errorf("seed 2: golden %s, correct=%v, %d failed: %s", res.Header.Golden, res.Correct, res.Failed, res.Header.FirstError)
	}
}

// TestTraced runs every workload traced, twice, and holds the runs to:
// every per-layer metric of the manifest emitted with its unit, the
// exact counts equal across the repeats, and the stages on the op's path
// adding up to the traced op.
func TestTraced(t *testing.T) {
	m := loadTestManifest(t)
	exact := []string{"mpisim.virtual_s", "prof.storage_bytes", "prof.wire_bytes", "ppg.edges", "engine.compile_misses", "detect.report_bytes"}
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]*Result
			for i := range runs {
				res, err := Run(Config{Workload: name, Seed: 1, Seconds: tinySeconds, Trace: true, TmpDir: t.TempDir(), TraceDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v, %d of %d ops failed: %s", i, res.Correct, res.Failed, res.Attempted, res.Header.FirstError)
				}
				checkEmitted(t, res, m.PerLayer)
				runs[i] = res
			}
			for _, c := range exact {
				if a, b := runs[0].Metrics[c].Value, runs[1].Metrics[c].Value; a != b {
					t.Errorf("%s reads %v then %v", c, a, b)
				}
			}
			if r := runs[0].Metrics["bench.stage_sum_ratio"].Value; r <= 0 {
				t.Errorf("bench.stage_sum_ratio = %v", r)
			}
		})
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		for i, q := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(tc.in, q); got != tc.want[i] {
				t.Errorf("quantile(%v, %v) = %v, want %v", tc.in, q, got, tc.want[i])
			}
		}
	}
}

func TestQuietBlock(t *testing.T) {
	blocks := []float64{7, 3, 9, 1, 10, 4, 8, 2, 6, 5}
	if got := quietBlock(blocks, "lower"); got != 1 {
		t.Errorf("quietest of a lower-is-better metric = %v, want 1", got)
	}
	if got := quietBlock(blocks, "higher"); got != 10 {
		t.Errorf("quietest of a higher-is-better metric = %v, want 10", got)
	}
}

func TestTopRegression(t *testing.T) {
	quietReport := []byte("{\n \"app\": \"zeusmp\",\n \"history\": [\n  {\n   \"np\": 8\n  }\n ],\n \"vertices\": 12\n}\n")
	if _, quiet := topRegression(quietReport); !quiet {
		t.Error("report without regressions not read as quiet")
	}
	flagged := []byte("{\n \"vertices\": 12,\n \"regressions\": [\n  {\n   \"vertex\": {\n    \"key\": \"main/loop@3\",\n    \"kind\": \"Loop\"\n   }\n  },\n  {\n   \"vertex\": {\n    \"key\": \"other\"\n   }\n  }\n ]\n}\n")
	key, quiet := topRegression(flagged)
	if quiet || string(key) != `"main/loop@3"` {
		t.Errorf("top regression = %s, quiet=%v", key, quiet)
	}
}

// TestCompareVerdicts feeds Compare sets whose verdicts are known.
func TestCompareVerdicts(t *testing.T) {
	m := &Manifest{EndToEnd: []MetricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	m.Workloads = append(m.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(values ...float64) []Result {
		var out []Result
		for _, v := range values {
			out = append(out, Result{Header: Header{Workload: "w"}, Metrics: map[string]Metric{"op_p50_ms": {v, "ms"}}})
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		a, b    []Result
		verdict string
		worse   bool
	}{
		{"same", set(100, 101, 102), set(101, 102, 103), "ok", false},
		{"slower", set(100, 101, 102), set(120, 121, 122), "worse", true},
		{"noisy", set(100, 120, 140), set(110, 130, 150), "unresolved", false},
		{"noisy but every run faster", set(100, 120, 140), set(60, 70, 80), "ok", false},
	} {
		var buf bytes.Buffer
		worse, err := Compare(&buf, m, tc.a, tc.b)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if last := lines[len(lines)-1]; err != nil || worse != tc.worse || !strings.HasSuffix(last, " "+tc.verdict) {
			t.Errorf("%s: worse=%v, err=%v, row %q; want verdict %s", tc.name, worse, err, last, tc.verdict)
		}
	}
	// Sets measured with different settings are refused, whichever differs.
	for _, change := range []func(*Header){
		func(h *Header) { h.Seed = 2 },
		func(h *Header) { h.Seconds = 30 },
		func(h *Header) { h.GOMAXPROCS = 2 },
	} {
		b := set(100, 101, 102)
		change(&b[1].Header)
		if _, err := Compare(io.Discard, m, set(100, 101, 102), b); err == nil {
			t.Errorf("sets with headers %+v and %+v compared", b[0].Header, b[1].Header)
		}
	}
}
