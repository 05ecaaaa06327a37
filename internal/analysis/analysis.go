// Package analysis is the invariant linter: a small, dependency-free
// counterpart of golang.org/x/tools/go/analysis that machine-checks the
// contracts this codebase lives by — deterministic wire output
// (maporder), a virtual-time-only simulator core (walltime), seeded
// randomness threaded from config (seededrand), and allocation-free
// annotated hot paths (hotpath).
//
// The framework deliberately mirrors the go/analysis surface (Analyzer,
// Pass, Reportf) so the passes could be ported onto x/tools verbatim if
// the dependency ever becomes available; the loader (load.go) and the
// cmd/scalana-lint driver stand in for go/packages and multichecker
// using only the standard library plus the go tool itself.
//
// # Suppressions
//
// A diagnostic can be silenced with a control comment on the flagged
// line or on the line directly above it:
//
//	//scalana:allow maporder keys are render-only, order checked by golden test
//
// The first word after "allow" names the analyzer; everything after it
// is a mandatory human-readable justification. Suppressions without a
// justification are themselves reported.
//
// # The //scalana:hot annotation
//
// A function whose doc comment contains a line "//scalana:hot" opts into
// the hotpath analyzer's allocation contract; see hotpath.go for the
// checked construct list and DESIGN.md §11 for the grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is the one-paragraph description the driver prints.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	allow allowIndex
}

// Reportf records a diagnostic at pos unless a //scalana:allow control
// comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	if p.allow.allows(posn, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      posn,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowIndex maps file -> line -> analyzer names suppressed on that line.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) allows(posn token.Position, analyzer string) bool {
	lines := ai[posn.Filename]
	if lines == nil {
		return false
	}
	set := lines[posn.Line]
	return set != nil && (set[analyzer] || set["*"])
}

const (
	allowPrefix = "scalana:allow"
	hotMarker   = "scalana:hot"
)

// buildAllowIndex scans every comment for //scalana:allow directives. A
// directive suppresses the named analyzer on its own line and on the
// line immediately below it (so it can sit above the flagged statement).
// Malformed directives (no analyzer, or no justification) are reported
// as diagnostics themselves so they cannot rot silently.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) allowIndex {
	ai := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				posn := fset.Position(c.Pos())
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:      posn,
						Analyzer: "allow",
						Message:  "malformed //scalana:allow: want \"//scalana:allow <analyzer> <justification>\"",
					})
					continue
				}
				lines := ai[posn.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ai[posn.Filename] = lines
				}
				for _, line := range []int{posn.Line, posn.Line + 1} {
					set := lines[line]
					if set == nil {
						set = map[string]bool{}
						lines[line] = set
					}
					set[fields[0]] = true
				}
			}
		}
	}
	return ai
}

// IsHot reports whether the function declaration carries the
// //scalana:hot annotation in its doc comment.
func IsHot(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotMarker {
			return true
		}
	}
	return false
}

// RunAnalyzers executes the given analyzers over one loaded package and
// returns the surviving diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := buildAllowIndex(pkg.Fset, pkg.Files, &diags)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
			allow:     allow,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, WallTime, SeededRand, HotPath}
}
