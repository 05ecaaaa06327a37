package ir

import (
	"fmt"
	"sort"

	"scalana/internal/minilang"
)

// CallSite is one static call site within a function.
type CallSite struct {
	Caller   string
	Callee   string // "" for indirect calls
	Node     minilang.Node
	Indirect bool
}

// CallGraph is the program call graph (PCG, paper §III-A): nodes are
// functions, edges are direct call sites. Indirect call sites are listed
// separately because their targets are only known at runtime.
type CallGraph struct {
	Funcs         map[string]*Func
	Callees       map[string][]string   // deduplicated, sorted
	Sites         map[string][]CallSite // per caller, in lowering order
	IndirectSites []CallSite
}

// BuildCallGraph lowers the program (if fns is nil) and scans every
// instruction for call sites.
func BuildCallGraph(prog *minilang.Program, fns map[string]*Func) *CallGraph {
	if fns == nil {
		fns = LowerProgram(prog)
	}
	cg := &CallGraph{
		Funcs:   fns,
		Callees: map[string][]string{},
		Sites:   map[string][]CallSite{},
	}
	for _, fd := range prog.Funcs {
		fn := fns[fd.Name]
		seen := map[string]bool{}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case OpCall:
					site := CallSite{Caller: fd.Name, Callee: in.Callee, Node: in.Node}
					cg.Sites[fd.Name] = append(cg.Sites[fd.Name], site)
					if !seen[in.Callee] {
						seen[in.Callee] = true
						cg.Callees[fd.Name] = append(cg.Callees[fd.Name], in.Callee)
					}
				case OpIndirectCall:
					site := CallSite{Caller: fd.Name, Node: in.Node, Indirect: true}
					cg.Sites[fd.Name] = append(cg.Sites[fd.Name], site)
					cg.IndirectSites = append(cg.IndirectSites, site)
				}
			}
		}
		sort.Strings(cg.Callees[fd.Name])
	}
	return cg
}

// TopDownOrder returns functions reachable from main in a deterministic
// top-down order (breadth-first over direct call edges). Functions not
// reachable from main are excluded; unknown callees are an error.
func (cg *CallGraph) TopDownOrder() ([]string, error) {
	if _, ok := cg.Funcs["main"]; !ok {
		return nil, fmt.Errorf("ir: call graph has no main")
	}
	order := []string{"main"}
	seen := map[string]bool{"main": true}
	for i := 0; i < len(order); i++ {
		for _, c := range cg.Callees[order[i]] {
			if _, ok := cg.Funcs[c]; !ok {
				return nil, fmt.Errorf("ir: call to unknown function %q from %q", c, order[i])
			}
			if !seen[c] {
				seen[c] = true
				order = append(order, c)
			}
		}
	}
	return order, nil
}
