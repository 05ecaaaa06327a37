package interp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// genExpr builds a random arithmetic expression as MiniMP source together
// with its expected value, avoiding division/modulo by zero by
// construction. This drives the interpreter-correctness property test.
func genExpr(rng *rand.Rand, depth int) (string, float64) {
	if depth == 0 || rng.Intn(4) == 0 {
		v := float64(rng.Intn(19) - 9)
		if v < 0 {
			return fmt.Sprintf("(0 - %g)", -v), v
		}
		return fmt.Sprintf("%g", v), v
	}
	l, lv := genExpr(rng, depth-1)
	r, rv := genExpr(rng, depth-1)
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r), lv + rv
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r), lv - rv
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r), lv * rv
	case 3:
		if rv == 0 {
			return fmt.Sprintf("(%s + %s)", l, r), lv + rv
		}
		return fmt.Sprintf("(%s / %s)", l, r), lv / rv
	case 4:
		return fmt.Sprintf("min(%s, %s)", l, r), math.Min(lv, rv)
	default:
		return fmt.Sprintf("max(%s, %s)", l, r), math.Max(lv, rv)
	}
}

// TestInterpreterArithmeticProperty: for random expression trees, the
// interpreter computes the same value as the Go-side evaluation.
func TestInterpreterArithmeticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		expr, want := genExpr(rng, 5)
		src := fmt.Sprintf("func main() { print(%s); }", expr)
		prog, err := minilang.Parse("gen.mp", src)
		if err != nil {
			t.Logf("generated source failed to parse: %s: %v", src, err)
			return false
		}
		out, err := runBoth(t, prog, psg.MustBuild(prog), 1)
		if err != nil {
			t.Logf("run failed: %s: %v", src, err)
			return false
		}
		var got float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(out.Stdout, "[rank 0] "), "%g", &got); err != nil {
			return false
		}
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInterpreterLoopSumProperty: counted loops compute closed-form sums.
func TestInterpreterLoopSumProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 50)
		src := fmt.Sprintf(`
func main() {
	var s = 0;
	for (var i = 0; i < %d; i = i + 1) { s = s + i; }
	print(s);
}`, n)
		out, _ := mustRunBoth(t, src, 1)
		want := fmt.Sprintf("[rank 0] %d\n", n*(n-1)/2)
		return out.Stdout == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRingProperty: for any ring size, a full token circulation works and
// total time grows with the ring size.
func TestRingProperty(t *testing.T) {
	prev := 0.0
	for _, np := range []int{2, 4, 8, 16} {
		res := mustRun(t, `
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	if (rank == 0) {
		mpi_send(1, 0, 64);
		mpi_recv(np - 1, 0, 64);
	} else {
		mpi_recv(rank - 1, 0, 64);
		mpi_send((rank + 1) % np, 0, 64);
	}
}`, np)
		if res.Elapsed <= prev {
			t.Errorf("ring of %d not slower than smaller ring: %g <= %g", np, res.Elapsed, prev)
		}
		prev = res.Elapsed
	}
}

// TestGlueCostAttribution: with glue enabled, interpreter bookkeeping
// accrues virtual time even without compute().
func TestGlueCostAttribution(t *testing.T) {
	prog := minilang.MustParse("glue.mp", `
func main() {
	var s = 0;
	for (var i = 0; i < 100; i = i + 1) { s = s + i; }
}`)
	g := psg.MustBuild(prog)
	withGlue := NewRunner(prog, g)
	res1, err := mpisim.NewWorld(mpisim.Config{NP: 1}).RunBlocking(withGlue.Execute)
	if err != nil {
		t.Fatal(err)
	}
	noGlue := NewRunner(prog, g)
	noGlue.GlueIns = 0
	res2, err := mpisim.NewWorld(mpisim.Config{NP: 1}).RunBlocking(noGlue.Execute)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Elapsed <= res2.Elapsed {
		t.Errorf("glue cost missing: %g <= %g", res1.Elapsed, res2.Elapsed)
	}
	if res2.Elapsed != 0 {
		t.Errorf("pure scalar code without glue should cost 0 virtual time, got %g", res2.Elapsed)
	}
}
