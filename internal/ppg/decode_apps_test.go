package ppg_test

// The streaming path's differential test: for every bundled app and the
// synthetic corpus, each at two scales, the graph ppg.Decode streams out of
// the wire bytes must be the graph the slice API builds from the decoded
// set, and both must be the graph the old parallel Build (BuildOracle)
// assembled — Perf, Edges (bucket order included), RankTime, Storage and
// presence alike. internal/ppg cannot import the root package, so this
// lives in the external test package.

import (
	"math"
	"reflect"
	"testing"

	"scalana/internal/fit"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"

	scalana "scalana"
)

func checkStreamedGraph(t *testing.T, e *scalana.Engine, app *scalana.App, np int) {
	t.Helper()
	_, graph, err := e.Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: prof.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := prof.DecodeProfileSet(data, graph)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ppg.BuildOracle(graph, ps.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	built, err := ppg.Build(graph, ps.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, want) {
		t.Errorf("%s np=%d: Build differs from the old parallel Build", app.Name, np)
	}
	// Sized by the first rank, and sized by a store key.
	for _, size := range []int{0, np} {
		streamed, set, err := ppg.Decode(data, graph, size)
		if err != nil {
			t.Fatalf("%s np=%d: Decode(size %d): %v", app.Name, np, size, err)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Errorf("%s np=%d: the streamed graph (size %d) differs from Build(DecodeProfileSet(bytes)): %d vs %d edges",
				app.Name, np, size, streamed.NumEdges(), want.NumEdges())
		}
		if set.App != ps.App || set.NP != ps.NP || set.Elapsed != ps.Elapsed || set.Profiles != nil {
			t.Errorf("%s np=%d: Decode's envelope is %+v, the set's is %q %d %g", app.Name, np, set, ps.App, ps.NP, ps.Elapsed)
		}
	}
	// The run's own graph was written in place by its profilers, and wire
	// floats round-trip exactly: even that one is the same graph.
	if !reflect.DeepEqual(out.PPG(), want) {
		t.Errorf("%s np=%d: the graph the run assembled differs from the one its wire bytes decode to", app.Name, np)
	}
	// Finish's per-vertex summary is, bit for bit, what summing and
	// merging a copied series gives.
	for vid := range want.NumVIDs() {
		ts := want.TimeSeries(psg.VID(vid))
		var sum float64
		for _, t := range ts {
			sum += t
		}
		merged := math.NaN()
		if want.Present(psg.VID(vid)) {
			merged = fit.Merge(ts)
		}
		if got := want.Total(psg.VID(vid)); math.Float64bits(got) != math.Float64bits(sum) {
			t.Errorf("%s np=%d: vertex %d's Total is %v, its series sums to %v", app.Name, np, vid, got, sum)
		}
		if got := want.Merged(psg.VID(vid)); math.Float64bits(got) != math.Float64bits(merged) {
			t.Errorf("%s np=%d: vertex %d's Merged is %v, fit.Merge of its series is %v", app.Name, np, vid, got, merged)
		}
	}
}

func TestStreamedGraphMatchesBuild(t *testing.T) {
	e := scalana.NewEngine()
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, np := range []int{max(app.MinNP, 4), max(2*app.MinNP, 16)} {
				checkStreamedGraph(t, e, app, np)
			}
		})
	}
	t.Run("synth", func(t *testing.T) {
		corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus.Cases {
			for _, np := range []int{max(c.MinNP, 8), 2 * max(c.MinNP, 8)} {
				checkStreamedGraph(t, e, c.App(), np)
			}
		}
	})
}
