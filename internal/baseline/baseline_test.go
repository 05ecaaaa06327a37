package baseline_test

// Acceptance tests for the rolling-baseline detector: a seeded
// regression in the newest run must be flagged at the correct vertex, a
// no-regression history must stay quiet, and — the determinism
// contract — the report bytes must not depend on the order runs were
// fed into the state (same regime as the scheduler determinism test:
// perturb the input order, demand byte-identical output).

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scalana/internal/baseline"
	"scalana/internal/fit"
	"scalana/internal/psg"

	scalana "scalana"
)

// cgGraph compiles the bundled cg workload once per test.
func cgGraph(t *testing.T) *psg.Graph {
	t.Helper()
	app := scalana.GetApp("cg")
	if app == nil {
		t.Fatal("bundled app cg missing")
	}
	_, g, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mkSample fabricates a deterministic per-VID sample: a per-vertex base
// value plus a small run-dependent wiggle (so baselines have nonzero
// variance), with optional multiplicative bumps for seeding
// regressions. idx is the run's position in its scale's history.
func mkSample(g *psg.Graph, np, idx int, bump map[int]float64) *baseline.Sample {
	keys := g.Keys()
	values := make([]float64, len(keys))
	total := 0.0
	for vid := range values {
		v := 1 + 0.01*float64(vid)
		v *= 1 + 0.002*float64((idx*7+vid*3)%5)
		if m, ok := bump[vid]; ok {
			v *= m
		}
		values[vid] = v
		total += v
	}
	return &baseline.Sample{
		NP:        np,
		Hash:      fmt.Sprintf("%064d", np*1000+idx),
		Elapsed:   total,
		TotalTime: total,
		Values:    values,
	}
}

func addRuns(t *testing.T, st *baseline.State, smps []*baseline.Sample) {
	t.Helper()
	for seq, smp := range smps {
		if err := st.Add(seq, smp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWatchFlagsSeededRegression(t *testing.T) {
	g := cgGraph(t)
	const target = 2 // arbitrary non-root vertex
	st := baseline.NewState("cg", g, fit.MergeMedian)
	addRuns(t, st, []*baseline.Sample{
		mkSample(g, 8, 0, nil),
		mkSample(g, 8, 1, nil),
		mkSample(g, 8, 2, nil),
		mkSample(g, 8, 3, map[int]float64{target: 20}), // newest run: 20x on one vertex
	})
	rep, err := st.Watch(8, baseline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) == 0 {
		t.Fatal("seeded 20x regression was not flagged")
	}
	top := rep.Regressions[0]
	if want := g.Keys()[target]; top.Ref.Key != want {
		t.Fatalf("top regression at %q, want the seeded vertex %q", top.Ref.Key, want)
	}
	if len(rep.Regressions) != 1 {
		keys := make([]string, len(rep.Regressions))
		for i, r := range rep.Regressions {
			keys[i] = r.Ref.Key
		}
		t.Fatalf("expected exactly the seeded vertex, got %d: %s", len(rep.Regressions), strings.Join(keys, ", "))
	}
	if top.Z < baseline.DefaultParams().ZThd {
		t.Fatalf("flagged regression has z=%v below the threshold", top.Z)
	}
	if top.BaselineRuns != 3 || rep.BaselineRuns != 3 || rep.Runs != 4 {
		t.Fatalf("baseline accounting: vertex=%d report=%d/%d", top.BaselineRuns, rep.BaselineRuns, rep.Runs)
	}
	if top.Value <= top.Mean {
		t.Fatalf("regression value %v not above baseline mean %v", top.Value, top.Mean)
	}
}

func TestWatchQuietHistory(t *testing.T) {
	g := cgGraph(t)
	st := baseline.NewState("cg", g, fit.MergeMedian)
	addRuns(t, st, []*baseline.Sample{
		mkSample(g, 8, 0, nil),
		mkSample(g, 8, 1, nil),
		mkSample(g, 8, 2, nil),
		mkSample(g, 8, 3, nil),
	})
	rep, err := st.Watch(8, baseline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("no-regression history flagged %d vertices (first: %+v)", len(rep.Regressions), rep.Regressions[0])
	}
	if rep.Vertices == 0 {
		t.Fatal("quiet report scored no vertices at all")
	}
}

// TestWatchSingleRunHistory: one run has nothing to compare against —
// a defined quiet report with zero scored vertices, not an error.
func TestWatchSingleRunHistory(t *testing.T) {
	g := cgGraph(t)
	st := baseline.NewState("cg", g, fit.MergeMedian)
	addRuns(t, st, []*baseline.Sample{mkSample(g, 8, 0, nil)})
	rep, err := st.Watch(8, baseline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 || rep.Vertices != 0 {
		t.Fatalf("single-run history: regressions=%d vertices=%d", len(rep.Regressions), rep.Vertices)
	}
	if _, err := st.Watch(16, baseline.DefaultParams()); err == nil {
		t.Fatal("watching a scale with no runs did not error")
	}
}

// TestStateOrderDeterminism is the satellite acceptance test: feeding
// the same run history in upload order vs. shuffled order must produce
// byte-identical EncodeJSON output.
func TestStateOrderDeterminism(t *testing.T) {
	g := cgGraph(t)
	type run struct {
		seq int
		smp *baseline.Sample
	}
	var runs []run
	for i := 0; i < 3; i++ {
		runs = append(runs, run{i, mkSample(g, 4, i, nil)})
	}
	for i := 0; i < 4; i++ {
		bump := map[int]float64{3: 1 + 0.5*float64(i)} // drifting vertex: exercises CUSUM + slopes
		runs = append(runs, run{i, mkSample(g, 8, i, bump)})
	}

	encode := func(order []int) []byte {
		st := baseline.NewState("cg", g, fit.MergeMedian)
		for _, i := range order {
			if err := st.Add(runs[i].seq, runs[i].smp); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := st.Watch(8, baseline.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	natural := make([]int, len(runs))
	for i := range natural {
		natural[i] = i
	}
	want := encode(natural)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		got := encode(rng.Perm(len(runs)))
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d: shuffled feed order changed the report bytes", trial)
		}
	}
}

// TestAddValidation: duplicate (seq, hash) re-adds are idempotent and
// samples from a different graph are rejected.
func TestAddValidation(t *testing.T) {
	g := cgGraph(t)
	st := baseline.NewState("cg", g, fit.MergeMedian)
	smp := mkSample(g, 8, 0, nil)
	if err := st.Add(0, smp); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(0, smp); err != nil {
		t.Fatalf("idempotent re-add errored: %v", err)
	}
	if rep, err := st.Watch(8, baseline.DefaultParams()); err != nil || rep.Runs != 1 {
		t.Fatalf("re-add duplicated the run: %+v, %v", rep, err)
	}
	bad := &baseline.Sample{NP: 8, Hash: smp.Hash, Values: []float64{1, 2, 3}}
	if err := st.Add(1, bad); err == nil {
		t.Fatal("sample with a foreign VID space was accepted")
	}
	if err := st.Add(1, nil); err == nil {
		t.Fatal("nil sample was accepted")
	}
}

// TestWatchZeroVarianceBaseline: identical prior runs give a
// zero-variance baseline; an upward move must flag with z=+Inf and the
// wire format must carry it.
func TestWatchZeroVarianceBaseline(t *testing.T) {
	g := cgGraph(t)
	const target = 2
	st := baseline.NewState("cg", g, fit.MergeMedian)
	base := mkSample(g, 8, 0, nil)
	for seq := 0; seq < 3; seq++ {
		cp := *base
		cp.Hash = fmt.Sprintf("%064d", seq)
		if err := st.Add(seq, &cp); err != nil {
			t.Fatal(err)
		}
	}
	reg := mkSample(g, 8, 0, map[int]float64{target: 3})
	reg.Hash = fmt.Sprintf("%064d", 99)
	if err := st.Add(3, reg); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Watch(8, baseline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) == 0 {
		t.Fatal("zero-variance baseline did not flag an upward move")
	}
	if !math.IsInf(rep.Regressions[0].Z, 1) {
		t.Fatalf("zero-variance z = %v, want +Inf", rep.Regressions[0].Z)
	}
	enc, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"z": "inf"`)) {
		t.Fatalf("+Inf z did not survive the wire:\n%s", enc)
	}
}
