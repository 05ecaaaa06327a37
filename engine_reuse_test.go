package scalana

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/hpctk"
	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/trace"
)

// runPrint is everything a run returns, in a form two runs compare by
// with reflect.DeepEqual: the RunResult, the storage, and the payload —
// the encoded profile set and the PPG for "scalana", the ranks' profiles
// for "hpctk", and a digest of the ranks' records for "tracer", so that a
// test holds one np=1024 trace at a time, not two.
type runPrint struct {
	result  mpisim.RunResult
	storage int64
	wire    []byte
	graph   *ppg.Graph
	hpctk   []*hpctk.RankProfile
	trace   [sha256.Size]byte
}

func printRun(t *testing.T, out *RunOutput) runPrint {
	t.Helper()
	p := runPrint{result: out.Result, storage: out.StorageBytes()}
	switch data := out.Data.(type) {
	case *ScalAnaData:
		ps := &prof.ProfileSet{App: out.App.Name, NP: out.NP, Elapsed: out.Result.Elapsed, Profiles: data.Profiles}
		var err error
		if p.wire, err = ps.Encode(); err != nil {
			t.Fatal(err)
		}
		// Each of two compared runs has a PSG of its own; the graphs are
		// equal, not one.
		g := *data.PPG
		g.PSG = nil
		p.graph = &g
	case []*hpctk.RankProfile:
		p.hpctk = data
	case []*trace.RankTrace:
		h := sha256.New()
		var buf []byte
		for _, rt := range data {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(rt.Rank))
			for _, r := range rt.Records {
				for _, w := range [...]uint64{math.Float64bits(r.T), uint64(r.Kind), uint64(r.Op), uint64(r.Vertex),
					uint64(r.Peer), uint64(r.Tag), math.Float64bits(r.Bytes), math.Float64bits(r.Wait), uint64(r.Dep)} {
					buf = binary.LittleEndian.AppendUint64(buf, w)
				}
			}
			h.Write(buf)
		}
		h.Sum(p.trace[:0])
	case nil:
	default:
		t.Fatalf("no print for a %T payload", data)
	}
	return p
}

// failingApp fails rank 5 with messages in flight, receives claimed,
// arrays allocated and the even ranks parked in a barrier: what a failed
// run leaves in an engine's world and VM slabs.
var failingApp = &App{Name: "fails", File: "fails.mp", MinNP: 8, Source: `
func main() {
	var r = mpi_rank();
	var n = mpi_size();
	var a = alloc(16);
	a[1] = r;
	var q = mpi_irecv((r + 1) % n, 9, 64);
	mpi_isend((r + n - 1) % n, 9, 64);
	mpi_send((r + 2) % n, 7, 128);
	if (r % 2 == 0) {
		mpi_barrier();
	}
	if (r == 5) {
		compute(0 - 1, 0, 0, 0);
	}
	mpi_recv((r + n - 2) % n, 7, 128);
	mpi_wait(q);
	mpi_barrier();
}`}

// TestEngineReuseIsInvisible: an engine's runs reuse the world and VM
// slabs of earlier ones, and what a run returns must not show it, then
// or after the engine's later runs. On one engine, zeusmp at np 1024,
// 64, 256 and 1024 — each run in a world kept from a larger or a smaller
// one — then sst, nekbone and cg, each bare and under every tool, and
// after a run whose rank fails, zeusmp again: every run returns what a
// run on fresh slabs (Run) returns, and still does once the sequence has
// ended. A
// trace, up to 140 MB of records at np=1024, is checked again once the
// next app or scale has run rather than held to the end.
func TestEngineReuseIsInvisible(t *testing.T) {
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	e := NewEngine()
	type kept struct {
		name string
		out  *RunOutput
		want runPrint
	}
	recheck := func(runs []kept) {
		t.Helper()
		for _, r := range runs {
			if !reflect.DeepEqual(printRun(t, r.out), r.want) {
				t.Errorf("%s: the engine's later runs changed what the run returned", r.name)
			}
		}
	}
	var runs, traces []kept
	check := func(app string, np int) {
		t.Helper()
		prev := traces
		traces = nil
		for _, tool := range []string{"", "hpctk", "scalana", "tracer"} {
			cfg := RunConfig{App: GetApp(app), NP: np, ToolName: tool, Prof: pcfg, Seed: 7}
			name := fmt.Sprintf("%s np=%d tool %q", app, np, tool)
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := printRun(t, fresh)
			fresh = nil
			out, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(printRun(t, out), want) {
				t.Errorf("%s: the engine's run differs from a run on fresh slabs", name)
			}
			k := kept{name, out, want}
			if tool == "tracer" {
				traces = append(traces, k)
			} else {
				runs = append(runs, k)
			}
		}
		recheck(prev)
	}
	for _, np := range []int{1024, 64, 256, 1024} {
		check("zeusmp", np)
	}
	for _, app := range []string{"sst", "nekbone", "cg"} {
		check(app, 32)
	}
	for _, tool := range []string{"", "scalana"} {
		if _, err := e.Run(RunConfig{App: failingApp, NP: 64, ToolName: tool}); err == nil || !strings.Contains(err.Error(), "rank 5: ") {
			t.Fatalf("tool %q: the failing program gave %v, want rank 5's error", tool, err)
		}
		check("zeusmp", 64)
	}
	recheck(runs)
}

// TestEngineConcurrentSweepsReuse: two sweeps at once on one engine, each
// running four scales at a time and twice over, so that scales run in
// scratch other scales left, report what one serial sweep on a fresh
// engine does.
func TestEngineConcurrentSweepsReuse(t *testing.T) {
	app, nps := GetApp("zeusmp"), []int{8, 16, 32, 64}
	report := func(e *Engine, parallelism int) ([]byte, error) {
		runs, err := e.Sweep(app, nps, SweepConfig{Parallelism: parallelism, Prof: sweepCfg(), Seed: 3})
		if err != nil {
			return nil, err
		}
		rep, err := DetectScalingLoss(runs, detect.Config{})
		if err != nil {
			return nil, err
		}
		return rep.EncodeJSON()
	}
	want, err := report(NewEngine(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	for round := 0; round < 2; round++ {
		var got [2][]byte
		var errs [2]error
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = report(e, 4)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, g := range got {
			if !bytes.Equal(g, want) {
				t.Errorf("round %d, sweep %d: the report differs from a serial sweep's on a fresh engine", round, i)
			}
		}
	}
}

// TestEngineKeepsBoundedScratch: the scratch a zeusmp run at np=1024
// leaves is kept, and whatever a program allocates — large first arrays
// in the run's arena, large later arrays in the ranks' heaps, long
// channel queues, many channels — what an engine's run keeps holds at
// most maxKeptBytes once the run has returned, and once a later run has
// reset it.
func TestEngineKeepsBoundedScratch(t *testing.T) {
	prog, graph, err := NewEngine().Compile(GetApp("zeusmp"), psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := new(runScratch)
	if _, err := runCompiled(prog, graph, RunConfig{App: GetApp("zeusmp"), NP: 1024}, sc); err != nil {
		t.Fatal(err)
	}
	n := sc.idle()
	t.Logf("a zeusmp np=1024 scratch holds %d B", n)
	if n > maxKeptBytes {
		t.Errorf("a zeusmp np=1024 scratch holds %d B, more than the %d B an engine keeps", n, maxKeptBytes)
	}

	// One P and an empty pool (two collections empty it), so that the run
	// after a heavy one takes what the heavy one kept, if anything.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	const np = 32
	barrier := &App{Name: "barrier", File: "barrier.mp", Source: "func main() { mpi_barrier(); }\n"}
	for _, c := range []struct{ name, body string }{
		{"first arrays", "var a = alloc(60000); a[59999] = 1;"},
		{"later arrays", "var a = alloc(1); var b = alloc(60000); b[59999] = 1;"},
		{"queued sends", `var n = mpi_size();
	var r = mpi_rank();
	for (var i = 0; i < 20000; i = i + 1) {
		mpi_send((r + 1) % n, 1, 8);
	}
	for (var i = 0; i < 20000; i = i + 1) {
		mpi_recv((r + n - 1) % n, 1, 8);
	}`},
		{"many channels", `var n = mpi_size();
	var r = mpi_rank();
	for (var tag = 0; tag < 100; tag = tag + 1) {
		for (var d = 0; d < n; d = d + 1) {
			mpi_send(d, tag, 8);
		}
	}
	for (var tag = 0; tag < 100; tag = tag + 1) {
		for (var s = 0; s < n; s = s + 1) {
			mpi_recv(s, tag, 8);
		}
	}`},
	} {
		app := &App{Name: "heavy", File: "heavy.mp", Source: "func main() {\n\t" + c.body + "\n}\n"}
		e := NewEngine()
		for _, a := range []*App{app, barrier} {
			if _, _, err := e.Compile(a, psg.Options{}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		before := heapAfterGC()
		// The barrier run takes what the heavy run kept, if anything, and
		// resets it.
		for _, a := range []*App{app, barrier} {
			if _, err := e.Run(RunConfig{App: a, NP: np}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			// One collection leaves what the pool holds alive.
			kept := heapAfterGC() - before
			t.Logf("%s, after %s: %d B more are kept", c.name, a.Name, kept)
			if kept > maxKeptBytes+1<<20 {
				t.Errorf("%s: after %s %d B more are kept, want at most about %d", c.name, a.Name, kept, maxKeptBytes)
			}
		}
	}
}

// heapAfterGC returns the bytes of live heap objects after a collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
