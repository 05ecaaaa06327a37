package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeededRand forbids the global math/rand top-level functions in
// non-test code, everywhere. The package-level source is process-wide
// mutable state: any draw perturbs every other consumer's stream, which
// breaks the byte-reproducibility contract (same config + seed => same
// bytes) that the synth corpus, the determinism tests, and the wire
// fixtures all rely on. Randomness must flow from an explicit seeded
// stream threaded out of a Config: a simulated rank's is an mpisim.Stream
// (seeded from mpisim.Config.Seed and prof.Config.Seed), elsewhere a
// *rand.Rand; rand.New/rand.NewSource are therefore allowed — they are
// how such streams are built.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbids global math/rand top-level functions (rand.Intn, rand.Float64, " +
		"rand.Shuffle, ...) outside tests; thread a seeded *rand.Rand from config instead",
	Run: runSeededRand,
}

func runSeededRand(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods on *rand.Rand are the sanctioned API
			}
			if strings.HasPrefix(fn.Name(), "New") {
				return true // constructors build the seeded streams we want
			}
			pass.Reportf(sel.Pos(), "global %s.%s draws from process-wide shared state and breaks seeded "+
				"reproducibility; thread a seeded *rand.Rand from config instead", path, fn.Name())
			return true
		})
	}
	return nil
}
