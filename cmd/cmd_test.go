// Package cmd holds tests over every command at once: what each binary
// defines as flags, what the docs claim it defines, the listings users
// read, and commands that must agree with each other.
package cmd

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// binDir holds every command, built once by TestMain; flagsOf maps each
// command (the directory name under cmd/) to the flag names its -h
// output lists, sorted.
var (
	binDir  string
	flagsOf = map[string][]string{}
)

func TestMain(m *testing.M) {
	var err error
	if binDir, err = os.MkdirTemp("", "scalana-cmd-test-"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := readFlags(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(binDir)
	os.Exit(code)
}

// readFlags builds every command into binDir and records the flags each
// one's -h output lists.
func readFlags() error {
	mains, err := filepath.Glob("*/main.go")
	if err != nil {
		return err
	}
	args := []string{"build", "-o", binDir}
	for _, m := range mains {
		args = append(args, "./"+filepath.Dir(m))
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, m := range mains {
		name := filepath.Dir(m)
		// -h exits non-zero on some commands; the listing is all that counts.
		out, _ := exec.Command(filepath.Join(binDir, name), "-h").CombinedOutput()
		var flags []string
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				flags = append(flags, strings.Fields(rest)[0])
			}
		}
		if len(flags) == 0 {
			return fmt.Errorf("%s -h lists no flags:\n%s", name, out)
		}
		sort.Strings(flags)
		flagsOf[name] = flags
	}
	return nil
}

// flagLedger is every command's sorted flag names. A knob added or
// removed anywhere changes a line here.
const flagLedger = `scalana-bench all exp list o parallel tools
scalana-detect abnorm-thd app comm-causes cusum cusum-k expect-cause hz json min-runs min-share np parallel profiles scales store topk watch z
scalana-lint json list
scalana-prof app comm-prob compress hz list-tools np o seed tool
scalana-serve addr hz parallel quiet store
scalana-static app contract file json lint list maxloopdepth
scalana-synth archetypes cases corpus generate-only hz json np-list parallel seed templates topk
scalana-viewer app context hz parallel scales
`

func TestFlagLedger(t *testing.T) {
	names := make([]string, 0, len(flagsOf))
	for name := range flagsOf {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, strings.Join(flagsOf[name], " "))
	}
	if got := b.String(); got != flagLedger {
		t.Errorf("flag ledger changed:\n%s\nwant\n%s", got, flagLedger)
	}
}

// optionLedger is every exported struct named *Config, *Options or
// *Params outside bench/ and testdata/, with its sorted exported fields.
// An option added or removed anywhere changes a line here.
const optionLedger = `baseline.Params CUSUMK CUSUMThd MinRuns MinShare ZThd
detect.Config AbnormThd CommCauses MinShare SlopeThd TopK
difftest.Config NPs SampleHz Seed
mpisim.Config HookFactory MemSpeed NP Seed
prof.Config CommSampleProb NoCompress SampleHz Seed
psg.Options Contract MaxLoopDepth
scalana.RunConfig App NP Prof Seed ToolName
scalana.SweepConfig Parallelism Prof Seed
serve.Config Engine Logf Parallelism SampleHz Store
synth.EvalConfig Detect Engine NPs Parallelism SampleHz TopK
synth.GenConfig Archetypes Cases Seed Templates
`

func TestOptionLedger(t *testing.T) {
	var lines []string
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != ".." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.TypeSpec)
			if !ok || !s.Name.IsExported() || !optionType.MatchString(s.Name.Name) {
				return true
			}
			st, ok := s.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var fields []string
			for _, fl := range st.Fields.List {
				if len(fl.Names) == 0 && ast.IsExported(typeName(fl.Type)) {
					fields = append(fields, typeName(fl.Type))
				}
				for _, n := range fl.Names {
					if n.IsExported() {
						fields = append(fields, n.Name)
					}
				}
			}
			sort.Strings(fields)
			lines = append(lines, strings.TrimSpace(f.Name.Name+"."+s.Name.Name+" "+strings.Join(fields, " ")))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	if got := strings.Join(lines, "\n") + "\n"; got != optionLedger {
		t.Errorf("option ledger changed:\n%s\nwant\n%s", got, optionLedger)
	}
}

// optionType matches the name of a type the option ledger pins.
var optionType = regexp.MustCompile(`(Config|Options|Params)$`)

// docFlag matches a flag token in a documented command line; a value
// joined with '=' is not part of the name.
var docFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)

// TestDocumentedFlagsExist checks every flag the README's command table
// and each command's package doc show against what the command defines.
func TestDocumentedFlagsExist(t *testing.T) {
	check := func(where, cmd, text string) {
		t.Helper()
		defined, ok := flagsOf[cmd]
		if !ok {
			t.Errorf("%s: unknown command %q", where, cmd)
			return
		}
		for _, m := range docFlag.FindAllStringSubmatch(text, -1) {
			if i := sort.SearchStrings(defined, m[1]); i == len(defined) || defined[i] != m[1] {
				t.Errorf("%s: %s defines no flag -%s", where, cmd, m[1])
			}
		}
	}

	// README: a table row is | `command` | step | `example`, `-flag`, ... |.
	rows := 0
	for i, line := range strings.Split(readDoc(t, "README.md"), "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 5 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`scalana-") {
			continue
		}
		rows++
		cmd := strings.Trim(strings.TrimSpace(cols[1]), "`")
		spans := strings.Split(cols[3], "`")
		for j := 1; j < len(spans); j += 2 {
			check(fmt.Sprintf("README.md:%d", i+1), cmd, strings.TrimPrefix(spans[j], cmd))
		}
	}
	if rows != len(flagsOf) {
		t.Errorf("README command table has %d rows, want one per command (%d)", rows, len(flagsOf))
	}

	// Package docs: every indented doc line that runs a command.
	for cmd := range flagsOf {
		src, err := os.ReadFile(filepath.Join(cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		doc, _, _ := strings.Cut(string(src), "\npackage ")
		for i, line := range strings.Split(doc, "\n") {
			line, ok := strings.CutPrefix(line, "//\t")
			fields := strings.Fields(line)
			if !ok || len(fields) == 0 || !strings.HasPrefix(fields[0], "scalana-") {
				continue
			}
			line, _, _ = strings.Cut(line, "#")
			check(fmt.Sprintf("%s/main.go:%d", cmd, i+1), fields[0], strings.TrimPrefix(line, fields[0]))
		}
	}
}

// readDoc returns a file of the repository, named from its root.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// refDocs are the documents whose references must resolve. CHANGES.md
// records the past, so it may name what is gone.
var refDocs = []string{"README.md", "DESIGN.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}

// TestDocReferences resolves what the docs cite against the tree:
// backticked Go names, .go paths and their line numbers, and DESIGN.md
// section numbers, which Go comments outside bench/ cite too. Every row
// of DESIGN.md's invariants table must name an enforcer that exists.
// Run it after any rename and after any edit to a doc it reads.
func TestDocReferences(t *testing.T) {
	files, err := exec.Command("git", "-C", "..", "ls-files").Output()
	if err != nil {
		t.Skipf("doc paths resolve against git's tracked files: %v", err)
	}
	tr := newDocTree()
	var goFiles []string
	for _, path := range strings.Split(strings.TrimSpace(string(files)), "\n") {
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		src := readDoc(t, path)
		tr.lines[path] = strings.Count(src, "\n")
		if strings.Contains("/"+path, "/testdata/") {
			continue
		}
		if err := tr.addGo(path, src); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(path, "bench/") {
			goFiles = append(goFiles, path)
		}
	}
	design := readDoc(t, "DESIGN.md")
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		tr.sections[m[1]] = true
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		tr.metrics[m.Name] = true
	}
	for _, line := range strings.Split(readDoc(t, ".github/workflows/ci.yml"), "\n") {
		if step, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: "); ok {
			tr.ciSteps = append(tr.ciSteps, step)
		}
	}

	var findings []string
	for _, doc := range refDocs {
		findings = append(findings, tr.check(doc, readDoc(t, doc))...)
	}
	findings = append(findings, tr.checkEnforcers(design)...)
	for _, path := range goFiles {
		findings = append(findings, tr.sectionRefs(path, readDoc(t, path), designRef)...)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDocCheckerFindings runs the checker over small docs against a
// small tree: each stale reference is one finding, each exemption none.
func TestDocCheckerFindings(t *testing.T) {
	tr := newDocTree()
	if err := tr.addGo("internal/store/store.go", "package store\n\ntype Store struct{ mu int }\n\nfunc (s *Store) Put() {}\n\nfunc Open() {}\n"); err != nil {
		t.Fatal(err)
	}
	if err := tr.addGo("scalana.go", "package scalana\n\nfunc TestRuns() {}\n"); err != nil {
		t.Fatal(err)
	}
	tr.lines = map[string]int{"scalana.go": 3, "internal/store/store.go": 7, "cmd/a/main.go": 9, "cmd/b/main.go": 9}
	tr.sections["§1"] = true
	tr.metrics["store.history_ms"] = true
	for _, tc := range []struct {
		name, doc string
		findings  int
	}{
		{"resolving names", "`store.Open`, `store.Put()`, `store.Store.mu`, `Store.Put` and `TestRuns`.", 0},
		{"stale name", "`store.Close` and `store.Open`", 1},
		{"stale member", "`store.Store.Get`", 1},
		{"stale test", "`TestGone`", 1},
		{"path past the file's end", "`internal/store/store.go:8` and `store.go:2–7`", 1},
		{"ambiguous bare file name", "`main.go` and `a/main.go:9`", 1},
		{"missing section", "see DESIGN.md §1 and DESIGN\n§2", 1},
		{"file name exemption", "`scalana.go` and `scalana.go:3`", 0},
		{"metric name exemption", "`store.history` and `store.history_ms`", 0},
		{"fenced code is not a name", "```\n`store.Gone`\n```\n", 0},
	} {
		if got := tr.check("doc.md", tc.doc); len(got) != tc.findings {
			t.Errorf("%s: %d findings, want %d: %q", tc.name, len(got), tc.findings, got)
		}
	}
	if got := tr.sectionRefs("x.go", "// see DESIGN.md\n// §2 and DESIGN §1", designRef); len(got) != 1 {
		t.Errorf("a section cited across a comment's line break: %q, want one finding", got)
	}
	tr.ciSteps = []string{"go test -race (engine)"}
	table := "## §1 Invariants\n\n| invariant | enforced by |\n|---|---|\n" +
		"| a | `TestRuns`, `ci: go test -race` |\n| b | `store.Open` |\n| c | nothing |\n| d | `ci: gofmt` |\n"
	if got := tr.checkEnforcers(table); len(got) != 2 {
		t.Errorf("invariants table: %q, want findings for rows c and d", got)
	}
}

var (
	// codeSpan is inline Markdown code.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// qualifiedName is pkg.Name, pkg.Type.Member or Type.Member, with
	// optional call parentheses.
	qualifiedName = regexp.MustCompile(`(?s)^(\w+)\.(\w+)(?:\.(\w+))?(?:\(.*\))?$`)
	// testFunc is a test, benchmark or fuzz target's name.
	testFunc = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*$`)
	// goPath is a .go file path with an optional line or line range.
	goPath        = regexp.MustCompile(`[\w./-]*[\w-]\.go(?::(\d+)(?:[–-](\d+))?)?`)
	goPathOnly    = regexp.MustCompile(`^` + goPath.String() + `$`)
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)*(§\d+(?:\s*[,–-]\s*§\d+)*)`)
	selfRef       = regexp.MustCompile(`(§\d+)`)
	section       = regexp.MustCompile(`§\d+`)
	designHeading = regexp.MustCompile(`(?m)^## (§\d+) `)
	invariants    = regexp.MustCompile(`(?m)^## §\d+ Invariants`)
)

// docTree is what doc references resolve against.
type docTree struct {
	pkgs     map[string]*pkgNames       // by package name, "_test" dropped
	types    map[string]map[string]bool // type name → members, over every package
	lines    map[string]int             // tracked .go file → line count
	sections map[string]bool            // DESIGN.md's "§N" headings
	metrics  map[string]bool            // BENCHMARK.json metric names
	ciSteps  []string                   // ci.yml step names
}

// pkgNames is what one package name declares, over every package of
// that name.
type pkgNames struct {
	top     map[string]bool            // top-level declarations
	methods map[string]bool            // methods of any of its types
	members map[string]map[string]bool // type → its methods and struct fields
}

func newDocTree() *docTree {
	return &docTree{pkgs: map[string]*pkgNames{}, types: map[string]map[string]bool{},
		lines: map[string]int{}, sections: map[string]bool{}, metrics: map[string]bool{}}
}

// addGo records the declarations of one Go file.
func (tr *docTree) addGo(path, src string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	name := strings.TrimSuffix(f.Name.Name, "_test")
	p := tr.pkgs[name]
	if p == nil {
		p = &pkgNames{top: map[string]bool{}, methods: map[string]bool{}, members: map[string]map[string]bool{}}
		tr.pkgs[name] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		if tr.types[typ] == nil {
			tr.types[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
		tr.types[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
			} else {
				p.methods[d.Name.Name] = true
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					member(s.Name.Name, "")
					var fields []*ast.Field
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields.List
					case *ast.InterfaceType:
						fields = ty.Methods.List
					}
					for _, fl := range fields {
						if len(fl.Names) == 0 {
							member(s.Name.Name, typeName(fl.Type))
						}
						for _, n := range fl.Names {
							member(s.Name.Name, n.Name)
							if _, ok := s.Type.(*ast.InterfaceType); ok {
								p.methods[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// typeName is the name of a receiver or embedded field's type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// declared reports whether any package declares name at top level.
func (tr *docTree) declared(name string) bool {
	for _, p := range tr.pkgs {
		if p.top[name] {
			return true
		}
	}
	return false
}

// nameFinding is what is wrong with one inline code span, or "" when it
// resolves or is not a Go name of this module.
func (tr *docTree) nameFinding(tok string) string {
	if goPathOnly.MatchString(tok) || tr.metrics[tok] || tr.metrics[tok+"_ms"] {
		return ""
	}
	if testFunc.MatchString(tok) {
		if !tr.declared(tok) {
			return fmt.Sprintf("`%s` is declared in no package", tok)
		}
		return ""
	}
	m := qualifiedName.FindStringSubmatch(tok)
	if m == nil {
		return ""
	}
	if p := tr.pkgs[m[1]]; p != nil {
		if m[3] == "" && !p.top[m[2]] && !p.methods[m[2]] || m[3] != "" && !p.members[m[2]][m[3]] {
			return fmt.Sprintf("`%s` is not declared in package %s", tok, m[1])
		}
	} else if members, ok := tr.types[m[1]]; ok && m[3] == "" && !members[m[2]] {
		return fmt.Sprintf("`%s`: no type %s has a method or field %s", tok, m[1], m[2])
	}
	return ""
}

// check returns the stale references of one doc: names in inline code
// outside fenced blocks, and paths and sections anywhere.
func (tr *docTree) check(doc, text string) []string {
	var out []string
	prose := unfence(text)
	for _, m := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
		if msg := tr.nameFinding(prose[m[2]:m[3]]); msg != "" {
			out = append(out, fmt.Sprintf("%s:%d: %s", doc, lineAt(prose, m[0]), msg))
		}
	}
	for _, m := range goPath.FindAllStringSubmatchIndex(text, -1) {
		if m[1] < len(text) && isWordByte(text[m[1]]) {
			continue // .golden, .gob: not a Go file
		}
		if msg := tr.pathFinding(text, m); msg != "" {
			out = append(out, fmt.Sprintf("%s:%d: %s", doc, lineAt(text, m[0]), msg))
		}
	}
	ref := designRef
	if doc == "DESIGN.md" {
		ref = selfRef
	}
	return append(out, tr.sectionRefs(doc, text, ref)...)
}

// pathFinding is what is wrong with one goPath match m of text, or "".
func (tr *docTree) pathFinding(text string, m []int) string {
	ref := text[m[0]:m[1]]
	path, _, _ := strings.Cut(strings.TrimPrefix(ref, "./"), ":")
	n, ok := tr.lines[path]
	if !ok {
		var hits []string
		for f := range tr.lines {
			if strings.HasSuffix(f, "/"+path) {
				hits = append(hits, f)
			}
		}
		sort.Strings(hits)
		switch len(hits) {
		case 0:
			return fmt.Sprintf("%s: no tracked file", ref)
		case 1:
			n = tr.lines[hits[0]]
		default:
			return fmt.Sprintf("%s: ambiguous, %s", ref, strings.Join(hits, ", "))
		}
	}
	for _, g := range []int{2, 4} {
		if m[g] >= 0 {
			if line, _ := strconv.Atoi(text[m[g]:m[g+1]]); line > n {
				return fmt.Sprintf("%s: the file has %d lines", ref, n)
			}
		}
	}
	return ""
}

// sectionRefs returns every section ref cites in text that DESIGN.md
// has no heading for.
func (tr *docTree) sectionRefs(doc, text string, ref *regexp.Regexp) []string {
	var out []string
	for _, m := range ref.FindAllStringSubmatchIndex(text, -1) {
		for _, s := range section.FindAllString(text[m[2]:m[3]], -1) {
			if !tr.sections[s] {
				out = append(out, fmt.Sprintf("%s:%d: DESIGN.md has no section %s", doc, lineAt(text, m[0]), s))
			}
		}
	}
	return out
}

// checkEnforcers returns the rows of DESIGN.md's invariants table whose
// last cell does not name an enforcer that exists: a test, a
// package-qualified name (a lint rule is its analyzer, analysis.MapOrder)
// or "ci: " and part of a CI step's name.
func (tr *docTree) checkEnforcers(design string) []string {
	loc := invariants.FindStringIndex(design)
	if loc == nil {
		return []string{"DESIGN.md: no \"## §N Invariants\" section"}
	}
	var out []string
	rows := 0
	for i, line := range strings.Split(design[loc[1]:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 {
			continue // the header and its rule
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		spans := codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1)
		where := fmt.Sprintf("DESIGN.md:%d", lineAt(design, loc[1])+i)
		if len(spans) == 0 {
			out = append(out, where+": an invariant with no enforcer")
		}
		for _, s := range spans {
			if !tr.enforcer(s[1]) {
				out = append(out, fmt.Sprintf("%s: `%s` is no test, declared name or CI step", where, s[1]))
			}
		}
	}
	return out
}

// enforcer reports whether tok names a test, a declared name or a CI step.
func (tr *docTree) enforcer(tok string) bool {
	if step, ok := strings.CutPrefix(tok, "ci: "); ok {
		for _, s := range tr.ciSteps {
			if strings.Contains(s, step) {
				return true
			}
		}
		return false
	}
	if testFunc.MatchString(tok) {
		return tr.declared(tok)
	}
	m := qualifiedName.FindStringSubmatch(tok)
	return m != nil && (tr.pkgs[m[1]] != nil || tr.types[m[1]] != nil) && tr.nameFinding(tok) == ""
}

// unfence blanks the lines of fenced code blocks, keeping line numbers.
func unfence(text string) string {
	lines := strings.Split(text, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence || in {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

func lineAt(text string, i int) int { return strings.Count(text[:i], "\n") + 1 }

func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// benchListing is the committed scalana-bench -list output: every
// experiment, in paper order.
const benchListing = `table1   Table I: tool comparison on NPB-CG, 128 processes
fig2     Fig. 2: motivating example, injected delay in NPB-CG found by backtracking
fig4     Fig. 4: PSG construction stages for the Fig. 3 example
fig6     Fig. 6: a PPG running with 8 processes
fig7     Fig. 7: non-scalable and abnormal vertex examples
fig8     Fig. 8: problematic vertices and backtracking on the PPG
table2   Table II: PSG size and vertex mix for all programs
table3   Table III: static (compile-time) overhead of PSG construction
fig10    Fig. 10: average runtime overhead of the three tools, 4-128 processes
fig11    Fig. 11: storage cost of the three tools, 128 processes
table4   Table IV: post-mortem detection cost, 128 processes
fig12    Fig. 12: Zeus-MP root-cause paths and optimization speedup
fig13    Fig. 13: Zeus-MP runtime/storage overhead of the three tools
fig14    Fig. 14: SST root-cause paths and optimization
fig15    Fig. 15: SST per-rank TOT_INS before/after the fix
fig16    Fig. 16: Nekbone PMU data before/after the fix
synth    Accuracy: root-cause localization on the synthetic ground-truth corpus
`

func TestBenchListBytes(t *testing.T) {
	out, err := exec.Command(filepath.Join(binDir, "scalana-bench"), "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != benchListing {
		t.Errorf("scalana-bench -list:\n%s\nwant\n%s", out, benchListing)
	}
}

// viewerCause matches the viewer's heading for one root cause's code.
var viewerCause = regexp.MustCompile(`(?m)^── code for root cause \d+ \(([^)]+)\) ──$`)

// TestViewerShowsDetectCauses: scalana-viewer runs scalana-detect's
// simulate plan, so it shows the same root causes in the same order.
func TestViewerShowsDetectCauses(t *testing.T) {
	for _, tc := range []struct {
		app, scales string
		some        bool // the report has causes at all
	}{{"cg", "4,8", false}, {"cg-delay", "4,8", true}, {"zeusmp", "8,16", true}} {
		out, err := exec.Command(filepath.Join(binDir, "scalana-detect"), "-app", tc.app, "-scales", tc.scales, "-json", "-").Output()
		if err != nil {
			t.Fatalf("scalana-detect -app %s: %v", tc.app, err)
		}
		var rep struct {
			Causes []struct {
				Vertex struct {
					File string `json:"file"`
					Line int    `json:"line"`
				} `json:"vertex"`
			} `json:"causes"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, c := range rep.Causes {
			want = append(want, fmt.Sprintf("%s:%d", c.Vertex.File, c.Vertex.Line))
		}
		if tc.some != (len(want) > 0) {
			t.Fatalf("%s at %s: scalana-detect reports %d causes", tc.app, tc.scales, len(want))
		}
		out, err = exec.Command(filepath.Join(binDir, "scalana-viewer"), "-app", tc.app, "-scales", tc.scales).Output()
		if err != nil {
			t.Fatalf("scalana-viewer -app %s: %v", tc.app, err)
		}
		var got []string
		for _, m := range viewerCause.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s at %s: viewer shows causes %v, scalana-detect reports %v", tc.app, tc.scales, got, want)
		}
	}
}
