package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WallTime enforces the cooperative-scheduler contract: inside the
// simulator core, time is virtual and the scheduler is one loop on its
// caller's goroutine, stepping ranks that are values, not goroutines.
// Wall-clock reads, timers, channels, select, go statements and condition
// variables would reintroduce the nondeterminism (goroutine wakeup order,
// timer jitter) and the per-rank stacks the scheduler was built to
// eliminate, so none of them may appear in the restricted packages'
// non-test code.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "forbids wall-clock time (time.Now/After/Sleep/Timer/Ticker), " +
		"channel/select constructs, go statements and sync.Cond in the simulator " +
		"core packages (" + strings.Join(WallTimePackages, ", ") + "): simulation " +
		"runs on virtual time, on the goroutine that called World.Run",
	Run: runWallTime,
}

// WallTimePackages lists the final import-path segments of the packages
// the walltime contract covers.
var WallTimePackages = []string{"mpisim", "vm"}

// forbiddenTimeNames are the wall-clock members of package time.
// time.Duration stays legal: it is a unit, not a clock.
var forbiddenTimeNames = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true, "Timer": true, "Ticker": true,
}

func walltimeRestricted(pkgPath string) bool {
	seg := pkgPath
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		seg = pkgPath[i+1:]
	}
	for _, p := range WallTimePackages {
		if seg == p {
			return true
		}
	}
	return false
}

func runWallTime(pass *Pass) error {
	if !walltimeRestricted(pass.Pkg.Path()) {
		return nil
	}
	pkg := pass.Pkg.Name()
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in package %s: the cooperative scheduler contract allows "+
					"no channels in the simulator core (a rank that must wait parks and returns to the driver loop)", pkg)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select in package %s: the cooperative scheduler contract allows no "+
					"channel operations in the simulator core", pkg)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in package %s: the cooperative scheduler contract allows "+
					"no channel operations in the simulator core", pkg)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in package %s: the cooperative scheduler contract "+
						"allows no channel operations in the simulator core", pkg)
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in package %s: ranks are stepped on the goroutine that "+
					"called World.Run; the simulator core starts none of its own", pkg)
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
				if !ok {
					break
				}
				switch path := pn.Imported().Path(); {
				case path == "time" && forbiddenTimeNames[n.Sel.Name]:
					pass.Reportf(n.Pos(), "time.%s in package %s: simulation must run on virtual time only "+
						"(wall clocks and timers reintroduce the nondeterminism the scheduler removed)",
						n.Sel.Name, pkg)
				case path == "sync" && (n.Sel.Name == "Cond" || n.Sel.Name == "NewCond"):
					pass.Reportf(n.Pos(), "sync.%s in package %s: a parked rank is a continuation record, "+
						"not a goroutine asleep on a condition variable", n.Sel.Name, pkg)
				}
			}
			return true
		})
	}
	return nil
}
