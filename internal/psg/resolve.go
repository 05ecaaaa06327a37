package psg

import (
	"fmt"
	"sort"

	"scalana/internal/minilang"
)

// Indirect-call materialization.
//
// The paper (§III-B3) leaves indirect call sites as Call vertices and
// fills them in with runtime information. In MiniMP the possible targets
// are statically enumerable — a function value can only originate from
// an address-of expression (&name) — so Build materializes the subtree
// for every (indirect site, address-taken function) pair at compile
// time, before contraction and the one finalize. That is the whole
// mechanism: materialize is reachable only from Build, ResolveIndirect
// is a lookup in what Build filled, and a compiled graph shared by many
// simultaneous runs (the sweep engine's compile cache) cannot change
// under them because no code that could change it exists.

// addressTakenFuncs returns the sorted names of functions whose address
// is taken (&name) anywhere in the program. These are exactly the
// possible targets of indirect calls.
func addressTakenFuncs(prog *minilang.Program) []string {
	set := map[string]bool{}
	var walkExpr func(e minilang.Expr)
	var walkStmt func(s minilang.Stmt)
	walkExpr = func(e minilang.Expr) {
		switch ex := e.(type) {
		case *minilang.FuncRefExpr:
			set[ex.Name] = true
		case *minilang.IndexExpr:
			walkExpr(ex.Idx)
		case *minilang.UnaryExpr:
			walkExpr(ex.X)
		case *minilang.BinaryExpr:
			walkExpr(ex.L)
			walkExpr(ex.R)
		case *minilang.CallExpr:
			for _, a := range ex.Args {
				walkExpr(a)
			}
		}
	}
	walkStmt = func(s minilang.Stmt) {
		switch st := s.(type) {
		case *minilang.VarDecl:
			walkExpr(st.Init)
		case *minilang.AssignStmt:
			if st.Idx != nil {
				walkExpr(st.Idx)
			}
			walkExpr(st.Val)
		case *minilang.ExprStmt:
			walkExpr(st.X)
		case *minilang.ReturnStmt:
			if st.Value != nil {
				walkExpr(st.Value)
			}
		case *minilang.Block:
			for _, c := range st.Stmts {
				walkStmt(c)
			}
		case *minilang.IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *minilang.ForStmt:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkStmt(st.Post)
			}
			walkStmt(st.Body)
		case *minilang.WhileStmt:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		}
	}
	for _, fn := range prog.Funcs {
		walkStmt(fn.Body)
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// materialize inlines target's local PSG underneath cv, the indirect
// call vertex of (inst, site), or binds the site to the ancestor instance
// already executing target. Build-only: it runs single-threaded from
// materializeAllIndirect, once per (site, target) pair, before finalize.
func (g *Graph) materialize(inst *Instance, site minilang.NodeID, cv *Vertex, target string) error {
	fn := g.Prog.Func(target)
	if fn == nil {
		return fmt.Errorf("psg: indirect call to unknown function %q", target)
	}

	// Recursion through function pointers: reuse the active ancestor
	// instance, forming a cycle like direct recursion does.
	for p := inst; p != nil; p = g.parents[p] {
		if p.Fn != nil && p.Fn.Name == target {
			rememberIndirect(inst, site, target, p)
			return nil
		}
	}

	child := g.newInstance(inst, fn, fmt.Sprintf("%s/%d@%s", inst.Path, site, target))
	b := &builder{g: g}
	// Seed the inlining stack with the ancestry so that direct recursion
	// inside the materialized subtree is still detected.
	for p := inst; p != nil; p = g.parents[p] {
		if p.Fn != nil {
			b.stack = append(b.stack, stackEntry{name: p.Fn.Name, inst: p})
		}
	}
	b.stack = append(b.stack, stackEntry{name: target, inst: child})
	b.walkBlock(child, fn.Body, cv)
	rememberIndirect(inst, site, target, child)
	return nil
}

// maxMaterializedInstances bounds materialization. The fixpoint must run
// to completion — a partially materialized graph would leave deep
// indirect sites with no subtree at all, and there is no runtime path to
// add one — so the pathological case (k
// address-taken functions that each contain an indirect site, giving one
// instance chain per ordered target sequence, O(k!) growth that no real
// workload exhibits) is rejected at compile time instead of silently
// degraded. Real programs sit orders of magnitude below this.
const maxMaterializedInstances = 65536

// materializeAllIndirect pre-materializes every (indirect site, address-
// taken function) pair, processing instances created along the way until
// fixpoint. Runs inside Build, before contraction, single-threaded.
//
// Every site acquires a subtree per possible target, including targets
// it never invokes at run time; unsampled vertices stay out of profiles
// and reports, so over-approximation costs graph memory only.
func (g *Graph) materializeAllIndirect() error {
	targets := addressTakenFuncs(g.Prog)
	if len(targets) == 0 {
		return nil
	}
	// g.instances grows while materializing; the index loop doubles as
	// the worklist. Sites and targets are visited in sorted order so
	// instance IDs, paths, and vertex order are deterministic.
	for i := 0; i < len(g.instances); i++ {
		if len(g.instances) > maxMaterializedInstances {
			return fmt.Errorf("psg: indirect-call materialization exceeded %d instances; nesting of the %d address-taken functions is too deep",
				maxMaterializedInstances, len(targets))
		}
		inst := g.instances[i]
		sites := make([]minilang.NodeID, 0, len(inst.siteVertex))
		for s := range inst.siteVertex {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(a, b int) bool { return sites[a] < sites[b] })
		for _, s := range sites {
			for _, t := range targets {
				if err := g.materialize(inst, s, inst.siteVertex[s], t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ResolveIndirect returns the PSG subtree for an indirect call observed
// at run time (paper §III-B3). inst/site identify the Call vertex of the
// indirect call site; target is the function actually invoked.
//
// It is a lookup, never a mutation: Build materialized every target a
// program can produce (function values come only from &name), so the
// only misses are callers naming an unknown function, a node that is not
// an indirect site, or a function whose address is never taken — each an
// error that leaves the graph as it was.
func (g *Graph) ResolveIndirect(inst *Instance, site minilang.NodeID, target string) (*Instance, error) {
	if child := inst.indirect[site][target]; child != nil {
		return child, nil
	}
	if g.Prog.Func(target) == nil {
		return nil, fmt.Errorf("psg: indirect call to unknown function %q", target)
	}
	if inst.siteVertex[site] == nil {
		return nil, fmt.Errorf("psg: node %d in %s is not an indirect call site", site, inst.Path)
	}
	return nil, fmt.Errorf("psg: indirect call to %q, whose address is never taken: node %d in %s has no subtree for it", target, site, inst.Path)
}

func rememberIndirect(inst *Instance, site minilang.NodeID, target string, child *Instance) {
	m := inst.indirect[site]
	if m == nil {
		m = map[string]*Instance{}
		inst.indirect[site] = m
	}
	m[target] = child
}

// IndirectTargets reports the materialized targets of an indirect site.
func (in *Instance) IndirectTargets(site minilang.NodeID) map[string]*Instance {
	return in.indirect[site]
}
