package ppg

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

func testGraph(t *testing.T) *psg.Graph {
	t.Helper()
	prog := minilang.MustParse("t.mp", `
func main() {
	compute(1e6, 1e4, 1e4, 4096);
	mpi_allreduce(8);
}`)
	return psg.MustBuild(prog)
}

func mkProfile(rank, np int, g *psg.Graph, times []float64) *prof.RankProfile {
	rp := prof.NewRankProfile(g, rank, np)
	for i, v := range g.Root.Children {
		if i < len(times) {
			rp.Vertex[v.VID] = prof.PerfData{Time: times[i], Samples: int64(times[i] * 1000),
				PMU: machine.Vec{times[i] * 1e6, times[i] * 2e6, times[i] * 1e5, 0, 0}}
		}
	}
	return rp
}

func TestBuildBasics(t *testing.T) {
	g := testGraph(t)
	np := 3
	var profiles []*prof.RankProfile
	for r := 0; r < np; r++ {
		profiles = append(profiles, mkProfile(r, np, g, []float64{0.1 * float64(r+1), 0.05}))
	}
	pg, err := Build(g, profiles)
	if err != nil {
		t.Fatal(err)
	}
	comp := g.Root.Children[0]
	ts := pg.TimeSeries(comp.VID)
	if len(ts) != np || ts[0] != 0.1 || ts[2] < 0.3-1e-9 || ts[2] > 0.3+1e-9 {
		t.Errorf("time series = %v", ts)
	}
	pmu := pg.PMUSeries(comp.VID, machine.TotIns)
	if pmu[1] != 0.2*1e6 {
		t.Errorf("PMU series = %v", pmu)
	}
	wantTotal := (0.1 + 0.2 + 0.3) + 3*0.05
	if got := pg.TotalTime(); got < wantTotal-1e-9 || got > wantTotal+1e-9 {
		t.Errorf("total time = %g, want %g", got, wantTotal)
	}
	if pg.Storage <= 0 {
		t.Error("storage not accumulated")
	}
	if ts := pg.TimeSeries(psg.VID(1 << 30)); len(ts) != np {
		t.Errorf("missing vertex series length = %d", len(ts))
	}
}

func TestBuildEdgesAggregation(t *testing.T) {
	g := testGraph(t)
	mpiV := g.Root.Children[1]
	np := 2
	p0 := mkProfile(0, np, g, []float64{0.1, 0.05})
	key := prof.CommKey{VID: mpiV.VID, Op: "mpi_allreduce", DepRank: 1,
		DepVID: mpiV.VID, Bytes: 8, Collective: true}
	p0.Comm = append(p0.Comm, prof.CommRecord{CommKey: key, Count: 10, TotalWait: 0.5, MaxWait: 0.1})
	// A second record with a different op but same peer aggregates into a
	// separate edge.
	key2 := key
	key2.Op = "mpi_barrier"
	p0.Comm = append(p0.Comm, prof.CommRecord{CommKey: key2, Count: 2, TotalWait: 0.01, MaxWait: 0.01})
	// Records without a dependence rank never become edges.
	key3 := key
	key3.DepRank = -1
	key3.Op = "mpi_isend"
	p0.Comm = append(p0.Comm, prof.CommRecord{CommKey: key3, Count: 5})
	p0.SortComm()
	p1 := mkProfile(1, np, g, []float64{0.1, 0.0})

	pg, err := Build(g, []*prof.RankProfile{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	edges := pg.Edges[EdgeFrom{VID: mpiV.VID, Rank: 0}]
	if len(edges) != 2 {
		t.Fatalf("%d edges, want 2", len(edges))
	}
	// Sorted by TotalWait descending.
	if edges[0].Op != "mpi_allreduce" || edges[0].TotalWait != 0.5 {
		t.Errorf("dominant edge = %+v", edges[0])
	}
	if pg.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", pg.NumEdges())
	}

	best := pg.BestEdge(mpiV.VID, 0, true, 1e-6)
	if best == nil || best.Op != "mpi_allreduce" {
		t.Errorf("BestEdge = %+v", best)
	}
	// Prune threshold above MaxWait: allreduce pruned, barrier pruned too
	// (its max wait 0.01 < 0.05) -> nil.
	if e := pg.BestEdge(mpiV.VID, 0, true, 0.5); e != nil {
		t.Errorf("expected all edges pruned, got %+v", e)
	}
	// Unpruned returns the heaviest regardless.
	if e := pg.BestEdge(mpiV.VID, 0, false, 0.5); e == nil || e.Op != "mpi_allreduce" {
		t.Errorf("unpruned BestEdge = %+v", e)
	}
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := Build(g, nil); err == nil {
		t.Error("no profiles should error")
	}
	p0 := mkProfile(0, 2, g, []float64{0.1})
	if _, err := Build(g, []*prof.RankProfile{p0}); err == nil {
		t.Error("missing ranks should error")
	}
	bad := mkProfile(0, 3, g, []float64{0.1})
	p1 := mkProfile(1, 2, g, []float64{0.1})
	if _, err := Build(g, []*prof.RankProfile{bad, p1}); err == nil {
		t.Error("inconsistent np should error")
	}
	oob := mkProfile(5, 2, g, []float64{0.1})
	if _, err := Build(g, []*prof.RankProfile{p1, oob}); err == nil {
		t.Error("rank out of range should error")
	}
}

// TestTiedRecordsAggregateInWireOrder is the licence for deleting this
// package's own record comparator. It broke ties after Tag by Bytes and
// then Collective; the one comparator left (prof's, the wire order Comm
// is stored in) goes Collective and then Bytes. Records that tie through
// Tag and differ in Bytes alone sort the same either way, and those are
// the only ties a run can produce — Collective is a function of Op. The
// expected values were recorded from the two-comparator build (commit
// e6e52b1): 0.2 + 0.3 + 0.1 in ascending-Bytes order is exactly 0.6,
// where 0.1 + 0.2 + 0.3 would be 0.6000000000000001.
func TestTiedRecordsAggregateInWireOrder(t *testing.T) {
	g := testGraph(t)
	mpiV := g.Root.Children[1]
	p0 := mkProfile(0, 2, g, []float64{0.1, 0.05})
	for _, r := range []struct{ bytes, wait float64 }{{1e6, 0.1}, {7, 0.2}, {1e3, 0.3}} {
		key := prof.CommKey{VID: mpiV.VID, Op: "mpi_recv", DepRank: 1, DepVID: mpiV.VID, Tag: 4, Bytes: r.bytes}
		p0.Comm = append(p0.Comm, prof.CommRecord{CommKey: key, Count: 3, TotalWait: r.wait, MaxWait: r.wait / 2})
	}
	p1 := mkProfile(1, 2, g, []float64{0.1, 0.0})
	profiles := []*prof.RankProfile{p0, p1}

	// Unsorted, the profile is refused rather than summed in the order it
	// happens to be in.
	if _, err := Build(g, profiles); err == nil || !strings.Contains(err.Error(), "canonical order") {
		t.Fatalf("Build of an unsorted profile: %v, want a canonical-order error", err)
	}
	if _, err := prof.EncodeProfileSet(&prof.ProfileSet{App: "tie", NP: 2, Elapsed: 1, Profiles: profiles}); err == nil {
		t.Fatal("an unsorted profile encoded")
	}
	p0.SortComm()

	pg, err := Build(g, profiles)
	if err != nil {
		t.Fatal(err)
	}
	edges := pg.Edges[EdgeFrom{VID: mpiV.VID, Rank: 0}]
	if len(edges) != 1 {
		t.Fatalf("%d edges, want the three records in one", len(edges))
	}
	want := DepEdge{PeerRank: 1, PeerVID: mpiV.VID, Op: "mpi_recv", Count: 9, Bytes: 3.003021e+06, TotalWait: 0.6, MaxWait: 0.15}
	if *edges[0] != want {
		t.Errorf("aggregated edge = %+v, want %+v", *edges[0], want)
	}
	data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: "tie", NP: 2, Elapsed: 1, Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	const wantSHA = "cee017047e087d2963789e3b4e3989adb7ffcdb5286a7e8d554bed8dd34160c0"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != wantSHA {
		t.Errorf("encoded set hashes to %s, want %s\n%s", got, wantSHA, data)
	}
}
