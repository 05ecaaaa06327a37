// Package cmd holds tests over every command at once: what each binary
// defines as flags, what the docs claim it defines, the listings users
// read, and commands that must agree with each other.
package cmd

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
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
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i, line := range strings.Split(string(readme), "\n") {
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
