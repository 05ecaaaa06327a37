package ppg

import (
	"fmt"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// benchProfiles synthesizes np rank profiles against a PSG with nMPI MPI
// vertices by driving the real profiler hooks, so the profile shape (and
// its allocation behavior inside Build) matches production runs.
func benchProfiles(tb testing.TB, nMPI, np int) (*psg.Graph, []*prof.RankProfile) {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("func main() {\n")
	for i := 0; i < nMPI; i++ {
		fmt.Fprintf(&sb, "\tcompute(1e6, 1e4, 1e4, 4096);\n")
		fmt.Fprintf(&sb, "\tmpi_allreduce(%d);\n", 8*(i+1))
	}
	sb.WriteString("}\n")
	g := psg.MustBuild(minilang.MustParse("bench.mp", sb.String()))
	var mpis []*psg.Vertex
	for _, v := range g.Vertices {
		if v.Kind == psg.KindMPI {
			mpis = append(mpis, v)
		}
	}
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	p := w.Proc(0)
	profiles := make([]*prof.RankProfile, np)
	for r := 0; r < np; r++ {
		pr := prof.New(prof.DefaultConfig(), g, r, np)
		period := 1 / prof.DefaultConfig().SampleHz
		for i, v := range mpis {
			p.Ctx = v
			pr.Sample(p, 1, period, &machine.Vec{100, 50, 10, 1, 5})
			pr.MPIEvent(p, &mpisim.Event{
				Kind: mpisim.EvRecv, Op: "mpi_recv", Rank: r, Peer: (r + 1) % np,
				Tag: i, Bytes: 1024, Wait: 1e-4, DepRank: (r + 1) % np, DepCtx: v, Ctx: v,
			})
		}
		profiles[r] = pr.Profile()
	}
	return g, profiles
}

// BenchmarkBuild measures PPG assembly; allocs/op is the headline the
// columnar-storage refactor targets (ISSUE 2, DESIGN.md §5).
func BenchmarkBuild(b *testing.B) {
	for _, np := range []int{8, 32} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			g, profiles := benchProfiles(b, 32, np)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, profiles); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocReduction pins what a build allocates (DESIGN.md §7): the
// pre-VID Build allocated one map row per vertex plus one DepEdge and one
// bucket slice per edge — 996 objects for this np=8 workload; the columnar
// block with per-rank arenas 399. The streaming Builder allocates the
// graph, its columns, a presized map and a handful of arena chunks: 25,
// gated with a quarter of headroom. Allocation counts are deterministic,
// so this asserts cleanly even on a single-CPU runner where timing
// comparisons cannot.
func TestBuildAllocReduction(t *testing.T) {
	g, profiles := benchProfiles(t, 32, 8)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(g, profiles); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 25 + 25/4
	if allocs > ceiling {
		t.Errorf("ppg.Build allocates %.0f objects/op; want at most %d", allocs, ceiling)
	}
}
