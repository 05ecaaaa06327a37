package ppg

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

	best := pg.BestEdge(mpiV.VID, 0, 1e-6)
	if best == nil || best.Op != "mpi_allreduce" {
		t.Errorf("BestEdge = %+v", best)
	}
	// Prune threshold above MaxWait: allreduce pruned, barrier pruned too
	// (its max wait 0.01 < 0.05) -> nil.
	if e := pg.BestEdge(mpiV.VID, 0, 0.5); e != nil {
		t.Errorf("expected all edges pruned, got %+v", e)
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

// encodeSet writes profiles as the wire bytes of one set.
func encodeSet(t *testing.T, profiles []*prof.RankProfile) []byte {
	t.Helper()
	data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: "t", NP: len(profiles), Elapsed: 1, Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// edgeProfiles is an np-rank job whose every rank waited, at the MPI
// vertex, on its two neighbours; scale spreads the values so that two
// jobs differ in every cell.
func edgeProfiles(g *psg.Graph, np int, scale float64) []*prof.RankProfile {
	mpiV := g.Root.Children[1]
	profiles := make([]*prof.RankProfile, np)
	for r := range profiles {
		rp := mkProfile(r, np, g, []float64{scale * float64(r+1), scale / 2})
		for _, peer := range []int{(r + 1) % np, (r + np - 1) % np}[:min(np-1, 2)] {
			key := prof.CommKey{VID: mpiV.VID, Op: "mpi_recv", DepRank: peer, DepVID: mpiV.VID, Bytes: 8}
			rp.Comm = append(rp.Comm, prof.CommRecord{CommKey: key, Count: 2, TotalWait: scale * float64(peer+1), MaxWait: scale})
		}
		rp.SortComm()
		profiles[r] = rp
	}
	return profiles
}

// TestDecodeRefusesWhatBuildRefuses: one table of sets that decode but do
// not assemble, each through the streaming path (sized by its first rank
// and by a key) and through DecodeProfileSet + Build. Both must refuse,
// in the same words unless the table names the streaming path's own.
func TestDecodeRefusesWhatBuildRefuses(t *testing.T) {
	g := testGraph(t)
	rank := func(r, np int) string { return fmt.Sprintf(`{"rank":%d,"np":%d}`, r, np) }
	for _, tc := range []struct{ name, set, want, keyed string }{
		{name: "no profiles", set: `{"np":2,"profiles":[]}`, want: "ppg: no profiles"},
		{name: "null profiles", set: `{"np":2,"profiles":null}`, want: "ppg: no profiles"},
		{name: "null rank", set: `{"np":2,"profiles":[` + rank(0, 2) + `,null]}`, want: "profile set has a null rank profile"},
		{name: "missing rank", set: `{"np":2,"profiles":[` + rank(0, 2) + `]}`, want: "ppg: got 1 profiles for np=2"},
		{name: "duplicate rank", set: `{"np":2,"profiles":[` + rank(1, 2) + "," + rank(1, 2) + `]}`, want: "ppg: duplicate profile for rank 1"},
		{name: "rank out of range", set: `{"np":2,"profiles":[` + rank(0, 2) + "," + rank(2, 2) + `]}`, want: "ppg: profile rank 2 out of range"},
		{name: "a rank whose np disagrees", set: `{"np":2,"profiles":[` + rank(0, 2) + "," + rank(1, 4) + `]}`, want: "ppg: profile for rank 1 has np=4, want 2"},
		{name: "np zero", set: `{"profiles":[{}]}`, want: "ppg: np=0 is outside 1..", keyed: "ppg: profile for rank 0 has np=0, want 2"},
		{name: "np larger than the bytes could hold", set: `{"np":1000000000,"profiles":[` + rank(0, 1000000000) + `]}`,
			want: "ppg: np=1000000000 is outside 1..", keyed: "ppg: profile for rank 0 has np=1000000000, want 2"},
	} {
		ps, err := prof.DecodeProfileSet([]byte(tc.set), g)
		if err == nil {
			_, err = Build(g, ps.Profiles)
		}
		if err == nil {
			t.Errorf("%s: DecodeProfileSet + Build accept", tc.name)
			continue
		}
		sliceWords := err.Error()
		if tc.keyed == "" && sliceWords != tc.want {
			t.Errorf("%s: DecodeProfileSet + Build say %q, want %s", tc.name, sliceWords, tc.want)
		}
		for size, want := range map[int]string{0: tc.want, 2: cmp.Or(tc.keyed, tc.want)} {
			if _, _, err := Decode([]byte(tc.set), g, size); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s: Decode(size %d) = %v, want %s", tc.name, size, err, want)
			}
		}
	}
}

// TestNPIsNeverSizedFromAnUnpaidNumber: a 60-byte set naming a billion
// ranks is refused before the block is allocated, whoever names them.
func TestNPIsNeverSizedFromAnUnpaidNumber(t *testing.T) {
	g := testGraph(t)
	set := []byte(`{"np":1000000000,"profiles":[{"rank":0,"np":1000000000}]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, size := range []int{0, 1000000000, MaxNP + 1} {
		if _, _, err := Decode(set, g, size); err == nil || !strings.Contains(err.Error(), "the most ranks the input could hold") {
			t.Errorf("Decode(size %d) = %v, want the np bound", size, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the set allocated %d bytes", grew)
	}
	// MaxNP bounds a set that did pay: MaxNP+1 ranks' worth of bytes.
	big := append(set, make([]byte, 8*(MaxNP+1))...)
	for i := len(set); i < len(big); i++ {
		big[i] = ' '
	}
	if _, _, err := Decode(big, g, MaxNP+1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("outside 1..%d", MaxNP)) {
		t.Errorf("Decode at MaxNP+1 = %v, want the MaxNP bound", err)
	}
}

// TestRepeatedProfilesFieldReplacesTheFirst: the builder resets when the
// reader meets "profiles" again, so the graph is the second array's alone —
// no cell, edge, presence bit or byte of storage of the first survives.
func TestRepeatedProfilesFieldReplacesTheFirst(t *testing.T) {
	g := testGraph(t)
	first, second := edgeProfiles(g, 3, 0.25), edgeProfiles(g, 3, 0.5)
	// The second job never ran the compute vertex on rank 1 and has no
	// edges out of rank 2: a stale cell or bucket would show.
	comp := g.Root.Children[0]
	second[1].Vertex[comp.VID] = prof.PerfData{}
	second[2].Comm = nil
	a, b := encodeSet(t, first), encodeSet(t, second)
	arrayOf := func(set []byte) string {
		s := string(set)
		return s[strings.Index(s, `"profiles"`) : len(s)-1]
	}
	both := []byte(`{"app":"t","np":3,"elapsed":1,` + arrayOf(a) + `,` + arrayOf(b) + `}`)
	got, _, err := Decode(both, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(g, second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two \"profiles\" arrays decode to\n%+v\nwant the second array's graph\n%+v", got, want)
	}
	// The sizing stands across a reset: a second array of another np is
	// refused, where the slice API would take it.
	other := encodeSet(t, edgeProfiles(g, 2, 0.5))
	mixed := []byte(`{"app":"t","np":2,"elapsed":1,` + arrayOf(a) + `,` + arrayOf(other) + `}`)
	if _, _, err := Decode(mixed, g, 0); err == nil || err.Error() != "ppg: profile for rank 0 has np=2, want 3" {
		t.Errorf("a second array of another np: %v", err)
	}
}

// TestArenaChunksStaySmall: an arena chunk is far below the runtime's 32 KB
// large-object threshold on purpose. DESIGN.md §5 ("Columnar layout")
// has the measurement: with 295 KB chunks a served detect's
// peak RSS rose 25 %, because a decode loop that allocates nothing else
// gives a one-P collector no assist point and a mark phase then spans the
// whole op.
func TestArenaChunksStaySmall(t *testing.T) {
	const largeObject = 32 << 10
	if size := unsafe.Sizeof([maxEdgeChunk]DepEdge{}); size > largeObject/4 {
		t.Errorf("an edge chunk is %d bytes; keep it under %d", size, largeObject/4)
	}
	if size := unsafe.Sizeof([maxPtrChunk]*DepEdge{}); size > largeObject/4 {
		t.Errorf("a bucket chunk is %d bytes; keep it under %d", size, largeObject/4)
	}
	// Chunks never move: an edge's address survives every later carve.
	var open []DepEdge
	firstEdge := &carve(&open, 1, maxEdgeChunk)[0]
	firstEdge.Count = 7
	sizes := map[int]bool{}
	for i := 0; i < 10*maxEdgeChunk; i++ {
		carve(&open, 1, maxEdgeChunk)[0].Count = int64(i)
		sizes[cap(open)] = true
	}
	if firstEdge.Count != 7 {
		t.Error("a later carve wrote over an earlier edge")
	}
	if want := (map[int]bool{8: true, 16: true, 32: true, 64: true}); !reflect.DeepEqual(sizes, want) {
		t.Errorf("chunk size classes = %v, want %v", sizes, want)
	}
	if bucket := carve(&open, 3*maxEdgeChunk, maxEdgeChunk); len(bucket) != 3*maxEdgeChunk || cap(bucket) != len(bucket) {
		t.Errorf("an oversized carve returned len %d cap %d", len(bucket), cap(bucket))
	}
}
