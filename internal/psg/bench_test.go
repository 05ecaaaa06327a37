package psg

import (
	"testing"

	"scalana/internal/minilang"
)

var benchSrc = `
func halo(next, prev, bytes) {
	var r1 = mpi_irecv(prev, 3, bytes);
	var r2 = mpi_irecv(next, 4, bytes);
	mpi_isend(next, 3, bytes);
	mpi_isend(prev, 4, bytes);
	mpi_waitall();
}
func kernel(w) {
	for (var i = 0; i < 8; i = i + 1) {
		for (var j = 0; j < 8; j = j + 1) {
			compute(w, w / 8, w / 16, 65536);
		}
	}
}
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	var next = (rank + 1) % np;
	var prev = (rank - 1 + np) % np;
	for (var it = 0; it < 10; it = it + 1) {
		kernel(1e6);
		if (it % 2 == 0) {
			halo(next, prev, 8192);
		}
		mpi_allreduce(8);
	}
}`

// TestBuildAllocBound gates what one contracted build of benchSrc
// allocates: Build walks the checked AST and lowers nothing else, spells
// each key and path in one reused buffer, and contracts on one scratch
// stack (138 objects; 176 when each key was a fmt.Sprintf and each
// contracted vertex grew lists of its own). The race runtime allocates on
// its own account, so the count is gated only without it.
func TestBuildAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not gated under the race detector")
	}
	prog := minilang.MustParse("bench.mp", benchSrc)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(prog, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 142 {
		t.Errorf("Build allocates %.0f objects, want at most 142", allocs)
	}
}

// BenchmarkBuildContracted measures full PSG construction with contraction.
func BenchmarkBuildContracted(b *testing.B) {
	prog := minilang.MustParse("bench.mp", benchSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(prog, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildUncontracted isolates the intra/inter-procedural phases.
func BenchmarkBuildUncontracted(b *testing.B) {
	prog := minilang.MustParse("bench.mp", benchSrc)
	opts := Options{MaxLoopDepth: 10, Contract: false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexOf measures the runtime attribution lookup the
// interpreter performs per statement.
func BenchmarkVertexOf(b *testing.B) {
	prog := minilang.MustParse("bench.mp", benchSrc)
	g := MustBuild(prog)
	inst := g.Main
	id := prog.Func("main").Body.Stmts[0].ID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inst.VertexOf(id) == nil {
			b.Fatal("lost attribution")
		}
	}
}
