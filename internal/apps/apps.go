// Package apps contains the evaluated workloads rewritten in MiniMP: the
// eight NPB kernels and the three real applications from the paper's
// evaluation (Zeus-MP, SST, Nekbone), plus the injected-delay NPB-CG used
// in the motivating example (paper Fig. 2).
//
// The ports keep each code's communication skeleton (stencil halo
// exchanges, butterfly reductions, transposes, pipelined wavefronts,
// non-blocking boundary exchanges) and the computation scaling of a
// strong-scaling run, and — for the case studies — the exact pathology
// the paper diagnoses: the bval3d busy-rank boundary loop in Zeus-MP, the
// O(n) pending-request scan in SST, and the memory-bound dgemm on
// heterogeneous cores in Nekbone. Each case study has an "-opt" variant
// applying the paper's fix.
package apps

import (
	"fmt"
	"sort"

	"scalana/internal/minilang"
)

// App is one registered workload.
type App struct {
	Name        string
	File        string
	Description string
	Source      string
	// KLoc is the original application's source size in thousands of
	// lines (paper Table II), reported alongside our measured PSG sizes.
	PaperKLoc float64
	// MemSpeed returns the relative memory speed of the core hosting a
	// rank (Nekbone's heterogeneous cores; see machine.NewCore). Nil means
	// uniform.
	MemSpeed func(rank int) float64
	// MinNP is the smallest rank count the port supports.
	MinNP int
}

// Parse parses the app's source.
func (a *App) Parse() (*minilang.Program, error) {
	return minilang.Parse(a.File, a.Source)
}

// MustParse parses the app's source, panicking on error.
func (a *App) MustParse() *minilang.Program {
	return minilang.MustParse(a.File, a.Source)
}

var registry = map[string]*App{}

func register(a *App) *App {
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("apps: duplicate app %q", a.Name))
	}
	if a.MinNP == 0 {
		a.MinNP = 2
	}
	registry[a.Name] = a
	return a
}

// Get returns a registered app by name, or nil.
func Get(name string) *App { return registry[name] }

// Names returns all registered app names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NPBNames lists the NPB kernels in the paper's Table II order.
func NPBNames() []string {
	return []string{"bt", "cg", "ep", "ft", "mg", "sp", "lu", "is"}
}

// EvaluationNames lists all programs of the paper's evaluation in Table II
// order: the NPB suite plus the three real applications.
func EvaluationNames() []string {
	return append(NPBNames(), "sst", "nekbone", "zeusmp")
}
