package ir

// Static scalability lint (the `scalana-static -lint` pass): flag MPI
// collectives that execute inside loops whose trip count grows with the
// job size. A collective synchronizes all np ranks, so a collective in
// an np-dependent loop costs Ω(np) global synchronizations — the exact
// shape of the paper's zeusmp-style scalability defects, visible
// statically long before a sweep measures it.
//
// The pass runs on this package's CFGs: natural loops from FindLoops
// give nesting depth and the originating loop statement, and the direct
// calls each CFG records extend the check through callees (a collective
// buried two calls deep inside an np-scaled loop is still flagged, with
// the call chain reported).

import (
	"fmt"
	"sort"

	"scalana/internal/minilang"
)

// ScaleFinding is one statically detected np-scaled collective.
type ScaleFinding struct {
	// Func is the function containing the np-dependent loop.
	Func string
	// LoopPos locates the loop statement whose trip count grows with np.
	LoopPos minilang.Pos
	// Depth is the loop's nesting depth (1 = outermost) in Func.
	Depth int
	// Collective is the flagged builtin name (mpi_allreduce, ...).
	Collective string
	// Pos locates the collective call site.
	Pos minilang.Pos
	// Via is the direct-call chain from the loop body to the function
	// containing the collective; empty when the collective is inline.
	Via []string
}

func (f ScaleFinding) String() string {
	s := fmt.Sprintf("%s: %s at %s inside np-dependent loop at %s (depth %d)",
		f.Func, f.Collective, f.Pos, f.LoopPos, f.Depth)
	if len(f.Via) > 0 {
		s += " via"
		for _, v := range f.Via {
			s += " " + v + "()"
		}
	}
	return s
}

// LintScaledCollectives analyzes every function of prog and returns the
// findings in deterministic (declaration, then position) order.
func LintScaledCollectives(prog *minilang.Program) []ScaleFinding {
	fns := LowerProgram(prog)
	collectiveVia := buildCollectiveVia(prog, fns)

	var out []ScaleFinding
	for _, fd := range prog.Funcs {
		fn := fns[fd.Name]
		dt := ComputeDominators(fn)
		loops := FindLoops(fn, dt)
		if len(loops) == 0 {
			continue
		}
		tainted := npTaintedVars(fd)

		// Innermost np-dependent loop per block: loops arrive
		// outermost-first, so deeper assignments overwrite shallower ones.
		byBlock := map[int]*Loop{}
		for _, l := range loops {
			if !npDependentLoop(l.Node, tainted) {
				continue
			}
			for id := range l.Blocks {
				byBlock[id] = l
			}
		}
		if len(byBlock) == 0 {
			continue
		}

		for _, b := range fn.Blocks {
			l := byBlock[b.ID]
			if l == nil {
				continue
			}
			for _, in := range b.Instrs {
				switch in.Op {
				case OpMPI:
					if minilang.IsCollective(in.Call) {
						out = append(out, ScaleFinding{
							Func: fd.Name, LoopPos: l.Node.Pos(), Depth: l.Depth,
							Collective: in.Call.Name, Pos: in.Call.Pos(),
						})
					}
				case OpCall:
					if via, ok := collectiveVia[in.Callee]; ok {
						out = append(out, ScaleFinding{
							Func: fd.Name, LoopPos: l.Node.Pos(), Depth: l.Depth,
							Collective: via.name, Pos: via.pos,
							Via: append([]string{in.Callee}, via.chain...),
						})
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Col < out[j].Pos.Col
	})
	return out
}

// collectiveInfo describes how a function reaches a collective: the
// collective's name and position, plus the remaining call chain below
// the function itself.
type collectiveInfo struct {
	name  string
	pos   minilang.Pos
	chain []string
}

// buildCollectiveVia maps every function that (transitively, via direct
// calls) executes a collective to one representative collective site.
func buildCollectiveVia(prog *minilang.Program, fns map[string]*Func) map[string]collectiveInfo {
	via := map[string]collectiveInfo{}
	callees := map[string][]string{}
	for _, fd := range prog.Funcs {
		for _, b := range fns[fd.Name].Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == OpCall:
					callees[fd.Name] = append(callees[fd.Name], in.Callee)
				case in.Op == OpMPI && minilang.IsCollective(in.Call):
					if _, ok := via[fd.Name]; !ok {
						via[fd.Name] = collectiveInfo{name: in.Call.Name, pos: in.Call.Pos()}
					}
				}
			}
		}
		sort.Strings(callees[fd.Name])
	}
	// Propagate up the direct calls to a fixed point. Callee lists are
	// sorted, so the representative chain chosen is deterministic.
	for changed := true; changed; {
		changed = false
		for _, fd := range prog.Funcs {
			if _, ok := via[fd.Name]; ok {
				continue
			}
			for _, callee := range callees[fd.Name] {
				if sub, ok := via[callee]; ok {
					via[fd.Name] = collectiveInfo{
						name: sub.name, pos: sub.pos,
						chain: append([]string{callee}, sub.chain...),
					}
					changed = true
					break
				}
			}
		}
	}
	return via
}

// npTaintedVars computes, to a fixed point, the set of local variables
// whose value (conservatively) derives from mpi_size(). Assignments
// through other tainted variables propagate; array element writes taint
// the whole array.
func npTaintedVars(fd *minilang.FuncDecl) map[string]bool {
	tainted := map[string]bool{}
	for changed := true; changed; {
		changed = false
		var walkStmt func(s minilang.Stmt)
		mark := func(name string, val minilang.Expr) {
			if !tainted[name] && exprNPTainted(val, tainted) {
				tainted[name] = true
				changed = true
			}
		}
		walkStmt = func(s minilang.Stmt) {
			switch st := s.(type) {
			case *minilang.VarDecl:
				mark(st.Name, st.Init)
			case *minilang.AssignStmt:
				mark(st.Name, st.Val)
			case *minilang.Block:
				for _, inner := range st.Stmts {
					walkStmt(inner)
				}
			case *minilang.IfStmt:
				walkStmt(st.Then)
				if st.Else != nil {
					walkStmt(st.Else)
				}
			case *minilang.ForStmt:
				if st.Init != nil {
					walkStmt(st.Init)
				}
				if st.Post != nil {
					walkStmt(st.Post)
				}
				walkStmt(st.Body)
			case *minilang.WhileStmt:
				walkStmt(st.Body)
			}
		}
		walkStmt(fd.Body)
	}
	return tainted
}

// npDependentLoop reports whether the loop statement's condition
// mentions mpi_size() or an np-tainted variable — i.e. whether its trip
// count grows with the job size.
func npDependentLoop(node minilang.Node, tainted map[string]bool) bool {
	var cond minilang.Expr
	switch st := node.(type) {
	case *minilang.ForStmt:
		cond = st.Cond
	case *minilang.WhileStmt:
		cond = st.Cond
	}
	if cond == nil {
		return false
	}
	return exprNPTainted(cond, tainted)
}

// exprNPTainted reports whether the expression mentions mpi_size() or a
// tainted variable.
func exprNPTainted(e minilang.Expr, tainted map[string]bool) bool {
	switch ex := e.(type) {
	case nil:
		return false
	case *minilang.VarRef:
		return tainted[ex.Name]
	case *minilang.IndexExpr:
		return tainted[ex.Name] || exprNPTainted(ex.Idx, tainted)
	case *minilang.UnaryExpr:
		return exprNPTainted(ex.X, tainted)
	case *minilang.BinaryExpr:
		return exprNPTainted(ex.L, tainted) || exprNPTainted(ex.R, tainted)
	case *minilang.CallExpr:
		if ex.Builtin != nil && ex.Builtin.Name == "mpi_size" {
			return true
		}
		for _, a := range ex.Args {
			if exprNPTainted(a, tainted) {
				return true
			}
		}
	}
	return false
}
