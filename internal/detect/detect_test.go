package detect

import (
	"math"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// synthetic builds a PPG for the given program with fabricated per-vertex,
// per-rank times and optional dependence edges — letting detection logic
// be tested in isolation from the simulator.
type synthetic struct {
	t     *testing.T
	graph *psg.Graph
	np    int
	profs []*prof.RankProfile
}

func newSynthetic(t *testing.T, src string, np int) *synthetic {
	t.Helper()
	prog := minilang.MustParse("t.mp", src)
	g := psg.MustBuild(prog)
	s := &synthetic{t: t, graph: g, np: np}
	for r := 0; r < np; r++ {
		s.profs = append(s.profs, prof.NewRankProfile(g, r, np))
	}
	return s
}

func (s *synthetic) vertex(substr string, kind psg.Kind) *psg.Vertex {
	s.t.Helper()
	for _, v := range s.graph.Vertices {
		if v.Kind == kind && strings.Contains(v.Key, substr) {
			return v
		}
	}
	s.t.Fatalf("no %v vertex matching %q", kind, substr)
	return nil
}

func (s *synthetic) setTime(v *psg.Vertex, rank int, time float64) {
	s.profs[rank].Vertex[v.VID] = prof.PerfData{Time: time, Samples: int64(time * 1e4),
		PMU: machine.Vec{time * 1e7, time * 2e7, time * 1e6, 0, 0}}
}

func (s *synthetic) addEdge(from *psg.Vertex, rank int, to *psg.Vertex, peerRank int, wait float64) {
	key := prof.CommKey{VID: from.VID, Op: from.Name, DepRank: peerRank, DepVID: to.VID}
	s.profs[rank].Comm = append(s.profs[rank].Comm, prof.CommRecord{CommKey: key, Count: 1, TotalWait: wait, MaxWait: wait})
}

func (s *synthetic) ppg() *ppg.Graph {
	s.t.Helper()
	for _, rp := range s.profs {
		rp.SortComm()
	}
	pg, err := ppg.Build(s.graph, s.profs)
	if err != nil {
		s.t.Fatal(err)
	}
	return pg
}

const simpleSrc = `
func main() {
	compute(1, 1, 1, 64);
	for (var i = 0; i < 2; i = i + 1) {
		compute(2, 1, 1, 64);
	}
	mpi_waitall();
	mpi_allreduce(8);
}`

func TestNonScalableDetection(t *testing.T) {
	// Three scales: the Comp scales perfectly (1/p), the Allreduce grows.
	var runs []ScaleRun
	for _, np := range []int{4, 8, 16} {
		s := newSynthetic(t, simpleSrc, np)
		comp := s.vertex("main", psg.KindComp)
		coll := s.vertex("main", psg.KindMPI)
		for r := 0; r < np; r++ {
			s.setTime(comp, r, 1.0/float64(np))
			s.setTime(coll, r, 0.01*math.Log2(float64(np)))
		}
		runs = append(runs, ScaleRun{NP: np, PPG: s.ppg()})
	}
	rep, err := Detect(runs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NonScalable) != 1 {
		t.Fatalf("non-scalable = %+v, want exactly the collective", rep.NonScalable)
	}
	ns := rep.NonScalable[0]
	if ns.Vertex.Kind != psg.KindMPI {
		t.Errorf("non-scalable vertex kind = %v", ns.Vertex.Kind)
	}
	if ns.Model.B < 0 {
		t.Errorf("slope = %g, want positive (log growth)", ns.Model.B)
	}
}

func TestNonScalableRespectsMinShare(t *testing.T) {
	var runs []ScaleRun
	for _, np := range []int{4, 8} {
		s := newSynthetic(t, simpleSrc, np)
		comp := s.vertex("main", psg.KindComp)
		coll := s.vertex("main", psg.KindMPI)
		for r := 0; r < np; r++ {
			s.setTime(comp, r, 1.0/float64(np))
			s.setTime(coll, r, 1e-7) // non-scalable but negligible
		}
		runs = append(runs, ScaleRun{NP: np, PPG: s.ppg()})
	}
	cfg := DefaultConfig()
	cfg.MinShare = 0.05
	rep, err := Detect(runs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NonScalable) != 0 {
		t.Errorf("negligible vertex flagged: %+v", rep.NonScalable)
	}
}

func TestAbnormalDetection(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 8)
	comp := s.vertex("main", psg.KindComp)
	for r := 0; r < 8; r++ {
		tm := 0.1
		if r == 4 || r == 6 {
			tm = 0.2 // beyond 1.3x the median
		}
		s.setTime(comp, r, tm)
	}
	rep, err := Detect([]ScaleRun{{NP: 8, PPG: s.ppg()}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Abnormal) != 1 {
		t.Fatalf("abnormal = %+v", rep.Abnormal)
	}
	ab := rep.Abnormal[0]
	if math.Abs(ab.Ratio-2.0) > 1e-9 {
		t.Errorf("ratio = %g, want 2", ab.Ratio)
	}
	if len(ab.OutlierRanks) != 2 || ab.OutlierRanks[0] != 4 || ab.OutlierRanks[1] != 6 {
		t.Errorf("outliers = %v, want [4 6]", ab.OutlierRanks)
	}
}

func TestAbnormalMinorityExecution(t *testing.T) {
	// Only 2 of 8 ranks execute the vertex at all: infinite ratio.
	s := newSynthetic(t, simpleSrc, 8)
	comp := s.vertex("main", psg.KindComp)
	other := s.vertex("main", psg.KindLoop)
	for r := 0; r < 8; r++ {
		s.setTime(other, r, 0.1) // background time so shares are finite
	}
	s.setTime(comp, 0, 0.3)
	s.setTime(comp, 3, 0.3)
	rep, err := Detect([]ScaleRun{{NP: 8, PPG: s.ppg()}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var found *Abnormal
	for i := range rep.Abnormal {
		if rep.Abnormal[i].VertexKey == comp.Key {
			found = &rep.Abnormal[i]
		}
	}
	if found == nil {
		t.Fatalf("minority-execution vertex not flagged: %+v", rep.Abnormal)
	}
	if !math.IsInf(found.Ratio, 1) {
		t.Errorf("ratio = %g, want +Inf", found.Ratio)
	}
	if len(found.OutlierRanks) != 2 {
		t.Errorf("outliers = %v", found.OutlierRanks)
	}
}

func TestAbnormThdTunable(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 4)
	comp := s.vertex("main", psg.KindComp)
	for r := 0; r < 4; r++ {
		tm := 0.1
		if r == 0 {
			tm = 0.14 // 1.4x
		}
		s.setTime(comp, r, tm)
	}
	strict := DefaultConfig()
	strict.AbnormThd = 1.5
	rep, _ := Detect([]ScaleRun{{NP: 4, PPG: s.ppg()}}, strict)
	if len(rep.Abnormal) != 0 {
		t.Errorf("1.4x outlier flagged at threshold 1.5: %+v", rep.Abnormal)
	}
	loose := DefaultConfig()
	loose.AbnormThd = 1.3
	rep, _ = Detect([]ScaleRun{{NP: 4, PPG: s.ppg()}}, loose)
	if len(rep.Abnormal) != 1 {
		t.Errorf("1.4x outlier missed at threshold 1.3: %+v", rep.Abnormal)
	}
}

// TestBacktrackFollowsCommEdge builds the canonical shape: rank 0's
// waitall waits on rank 1, whose extra time comes from a loop.
func TestBacktrackFollowsCommEdge(t *testing.T) {
	const src = `
func main() {
	for (var i = 0; i < 2; i = i + 1) {
		compute(2, 1, 1, 64);
	}
	mpi_waitall();
	mpi_allreduce(8);
}`
	s := newSynthetic(t, src, 2)
	loop := s.vertex("main", psg.KindLoop)
	var waitall, allreduce *psg.Vertex
	for _, v := range s.graph.Vertices {
		switch v.Name {
		case "mpi_waitall":
			waitall = v
		case "mpi_allreduce":
			allreduce = v
		}
	}
	// Rank 1 is busy in the loop; rank 0 waits for it.
	s.setTime(loop, 0, 0.05)
	s.setTime(loop, 1, 0.50)
	s.setTime(waitall, 0, 0.45)
	s.setTime(allreduce, 0, 0.02)
	s.setTime(allreduce, 1, 0.02)
	s.addEdge(waitall, 0, waitall, 1, 0.45)

	cfg := DefaultConfig()
	rep, err := Detect([]ScaleRun{{NP: 2, PPG: s.ppg()}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) == 0 {
		t.Fatal("no paths")
	}
	// Some path must hop to rank 1 and reach the loop.
	reached := false
	for _, p := range rep.Paths {
		for _, st := range p.Steps {
			if st.VertexKey == loop.Key && st.Rank == 1 {
				reached = true
			}
		}
	}
	if !reached {
		for _, p := range rep.Paths {
			for _, st := range p.Steps {
				t.Logf("  %s rank=%d %s", st.Via, st.Rank, st.VertexKey)
			}
		}
		t.Fatal("backtracking did not reach the busy loop on rank 1")
	}
	// And the loop must be the ranked cause.
	if len(rep.Causes) == 0 || rep.Causes[0].VertexKey != loop.Key {
		t.Errorf("causes = %+v, want loop first", rep.Causes)
	}
}

func TestBacktrackPruningControlsCommEdges(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 2)
	var waitall *psg.Vertex
	for _, v := range s.graph.Vertices {
		if v.Name == "mpi_waitall" {
			waitall = v
		}
	}
	comp := s.vertex("main", psg.KindComp)
	for r := 0; r < 2; r++ {
		s.setTime(comp, r, 0.1)
		s.setTime(waitall, r, 0.1)
	}
	// Edge with negligible wait: pruned.
	s.addEdge(waitall, 0, waitall, 1, 1e-9)

	pg := s.ppg()
	if e := pg.BestEdge(waitall.VID, 0, waitEps); e != nil {
		t.Errorf("waitless edge survived pruning: %+v", e)
	}
	if e := pg.BestEdge(waitall.VID, 0, 1e-9); e == nil {
		t.Error("an edge whose wait reaches the threshold should be found")
	}
}

func TestBacktrackTerminatesAtCollectiveViaLocalEdge(t *testing.T) {
	// Start vertex is after a collective in program order; the data-dep
	// walk must stop AT the collective, not walk through it.
	const src = `
func main() {
	mpi_allreduce(8);
	compute(2, 1, 1, 64);
	mpi_waitall();
}`
	s := newSynthetic(t, src, 2)
	var waitall, allreduce *psg.Vertex
	for _, v := range s.graph.Vertices {
		switch v.Name {
		case "mpi_waitall":
			waitall = v
		case "mpi_allreduce":
			allreduce = v
		}
	}
	comp := s.vertex("main", psg.KindComp)
	for r := 0; r < 2; r++ {
		s.setTime(comp, r, 0.2)
		s.setTime(waitall, r, 0.2)
		s.setTime(allreduce, r, 0.01)
	}
	bt := &backtracker{pg: s.ppg(), budget: maxSteps, scanned: make([]bool, s.graph.NumVIDs())}
	p := bt.walk(waitall, 0)
	for _, st := range p.Steps {
		if st.VertexKey == allreduce.Key {
			t.Errorf("walk passed through a collective reached by data dependence: %+v", p.Steps)
		}
	}
}

func TestBacktrackStepBudget(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 2)
	var waitall *psg.Vertex
	for _, v := range s.graph.Vertices {
		if v.Name == "mpi_waitall" {
			waitall = v
		}
	}
	pg := s.ppg()
	walk := func(budget int) int {
		bt := &backtracker{pg: pg, budget: budget, scanned: make([]bool, s.graph.NumVIDs())}
		return len(bt.walk(waitall, 0).Steps)
	}
	if full, bounded := walk(maxSteps), walk(2); full <= 2 || bounded != 2 {
		t.Errorf("walk of %d steps under a budget of 2 took %d, want 2", full, bounded)
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect(nil, DefaultConfig()); err == nil {
		t.Error("no runs should error")
	}
	// A negative TopK used to slice out of range, and a NaN threshold
	// fails every comparison, so it flagged every vertex.
	s := newSynthetic(t, simpleSrc, 2)
	runs := []ScaleRun{{NP: 2, PPG: s.ppg()}}
	nan := math.NaN()
	for _, cfg := range []Config{{TopK: -1}, {AbnormThd: nan}, {SlopeThd: nan}, {MinShare: nan}} {
		if _, err := Detect(runs, cfg); err == nil {
			t.Errorf("%+v: no error", cfg)
		}
	}
	// A smaller scale with neither a PPG nor a merged time for every
	// vertex used to panic: a nil dereference, an index out of range.
	s8 := newSynthetic(t, simpleSrc, 8)
	for r := range 8 {
		s8.setTime(s8.vertex("main", psg.KindComp), r, 1)
		s8.setTime(s8.vertex("main", psg.KindMPI), r, 1)
	}
	run8 := ScaleRun{NP: 8, PPG: s8.ppg()}
	for _, small := range []ScaleRun{{NP: 4}, {NP: 4, Merged: []float64{1}}} {
		if _, err := Detect([]ScaleRun{small, run8}, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "np=4") {
			t.Errorf("%+v beside np=8: %v, want an error naming np=4", small, err)
		}
	}
}

func TestDetectSingleScaleSkipsNonScalable(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 2)
	comp := s.vertex("main", psg.KindComp)
	s.setTime(comp, 0, 1)
	s.setTime(comp, 1, 1)
	rep, err := Detect([]ScaleRun{{NP: 2, PPG: s.ppg()}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NonScalable) != 0 {
		t.Error("single scale cannot yield non-scalable vertices")
	}
}

// TestDetectRefusesAMislabelledScale: the fit takes a run's scale from
// ScaleRun.NP, so a PPG of another size under it is an error naming both,
// whichever scale it is given as. It used to be fitted as the scale it
// was labelled.
func TestDetectRefusesAMislabelledScale(t *testing.T) {
	pgs := map[int]*ppg.Graph{}
	for _, np := range []int{4, 8} {
		s := newSynthetic(t, simpleSrc, np)
		for r := range np {
			s.setTime(s.vertex("main", psg.KindComp), r, 1.0/float64(np))
		}
		pgs[np] = s.ppg()
	}
	for want, runs := range map[string][]ScaleRun{
		"detect: the run given as np=8 has a PPG of np=4": {{NP: 4, PPG: pgs[4]}, {NP: 8, PPG: pgs[4]}},
		"detect: the run given as np=2 has a PPG of np=4": {{NP: 2, PPG: pgs[4]}, {NP: 8, PPG: pgs[8]}},
	} {
		if _, err := Detect(runs, DefaultConfig()); err == nil || err.Error() != want {
			t.Errorf("%v, want %s", err, want)
		}
	}
}

// TestMergedStandsInForAPPG: a smaller scale given as its merged times
// detects exactly as its PPG does, and the largest scale must bring a PPG.
func TestMergedStandsInForAPPG(t *testing.T) {
	cfg := DefaultConfig()
	var full, summarised []ScaleRun
	for _, np := range []int{4, 8} {
		s := newSynthetic(t, simpleSrc, np)
		comp := s.vertex("main", psg.KindComp)
		for r := 0; r < np; r++ {
			s.setTime(comp, r, 0.5)
		}
		pg := s.ppg()
		full = append(full, ScaleRun{NP: np, PPG: pg})
		run := ScaleRun{NP: np, PPG: pg}
		if np == 4 {
			run = ScaleRun{NP: np, Merged: make([]float64, pg.NumVIDs())}
			for vid := range run.Merged {
				run.Merged[vid] = pg.Merged(psg.VID(vid))
			}
		}
		summarised = append(summarised, run)
	}
	want, err := Detect(full, cfg)
	if err != nil || len(want.NonScalable) == 0 {
		t.Fatalf("detect over two PPGs: %v, %d non-scalable", err, len(want.NonScalable))
	}
	got, err := Detect(summarised, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.EncodeJSON()
	gotJSON, _ := got.EncodeJSON()
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("np=4 as merged times detects differently:\n%s\nwant\n%s", gotJSON, wantJSON)
	}
	if _, err := Detect([]ScaleRun{summarised[1], {NP: 16, Merged: summarised[0].Merged}}, cfg); err == nil {
		t.Error("a largest scale with no PPG was detected over")
	}
}

func TestRenderReport(t *testing.T) {
	s := newSynthetic(t, simpleSrc, 2)
	comp := s.vertex("main", psg.KindComp)
	s.setTime(comp, 0, 0.5)
	s.setTime(comp, 1, 0.1)
	rep, err := Detect([]ScaleRun{{NP: 2, PPG: s.ppg()}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog := minilang.MustParse("t.mp", simpleSrc)
	out := rep.Render(prog)
	for _, want := range []string{"abnormal vertices", "backtracking paths", "root causes"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	// Render without a program must not panic.
	_ = rep.Render(nil)
}
