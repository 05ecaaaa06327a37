package scalana_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"
)

// TestToolsListing: Tools lists exactly the three tools, sorted by name,
// each with a description, and NewToolRun resolves each name.
func TestToolsListing(t *testing.T) {
	_, graph, err := scalana.Compile(scalana.GetApp("cg"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tool := range scalana.Tools() {
		if tool.Description == "" {
			t.Errorf("tool %q has no description", tool.Name)
		}
		if _, err := scalana.NewToolRun(scalana.RunConfig{NP: 2, ToolName: tool.Name}, graph); err != nil {
			t.Errorf("NewToolRun(%q): %v", tool.Name, err)
		}
		names = append(names, tool.Name)
	}
	if got, want := strings.Join(names, " "), "hpctk scalana tracer"; got != want {
		t.Errorf("Tools() = %s, want %s", got, want)
	}
}

func TestRunUnknownToolNameErrors(t *testing.T) {
	_, err := scalana.Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4, ToolName: "no-such-tool"})
	if err == nil || !strings.Contains(err.Error(), "no-such-tool") {
		t.Errorf("unknown tool name should error naming the tool, got: %v", err)
	}
}

func saveWire(t *testing.T, out *scalana.RunOutput) string {
	t.Helper()
	ps := &prof.ProfileSet{App: out.App.Name, NP: out.NP, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
	path := filepath.Join(t.TempDir(), "wire.json")
	if err := ps.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunWireJSONMatchesCommittedFixtures is the tool API's byte-identity
// anchor: a live "scalana" run at the fixtures' settings (1 kHz, seed 0)
// must serialize to exactly the bytes committed under testdata/.
func TestRunWireJSONMatchesCommittedFixtures(t *testing.T) {
	app := scalana.GetApp("cg")
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 1000
	for _, np := range []int{4, 8} {
		out, err := scalana.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: cfg})
		if err != nil {
			t.Fatal(err)
		}
		got := saveWire(t, out)
		want, err := os.ReadFile(filepath.Join("testdata", fixtureName("cg", np)))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("np=%d: live run wire JSON diverged from the pre-registry fixture (%d vs %d bytes)",
				np, len(got), len(want))
		}
	}
}

// TestBareRunCarriesNoData: a bare run names no tool, carries no
// payload, and every RunOutput accessor degrades to its zero value.
func TestBareRunCarriesNoData(t *testing.T) {
	out, err := scalana.Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data != nil || out.Tool != "" {
		t.Fatalf("bare run should carry no payload, got tool %q and %T", out.Tool, out.Data)
	}
	if out.Profiles() != nil || out.PPG() != nil || out.StorageBytes() != 0 {
		t.Error("a bare run's accessors should return zero values")
	}
}

// TestPSGOptionsNormalizeSharedAcrossSpellings covers the old
// resolvePSGOptions hole: Options{Contract: true, MaxLoopDepth: 0} must
// mean paper defaults everywhere — same compiled graph, same engine
// cache entry as DefaultOptions().
func TestPSGOptionsNormalizeSharedAcrossSpellings(t *testing.T) {
	e := scalana.NewEngine()
	app := scalana.GetApp("cg")
	_, g1, err := e.Compile(app, psg.Options{Contract: true})
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := e.Compile(app, psg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, g3, err := e.Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || g2 != g3 {
		t.Error("spellings of the default options should share one compiled graph")
	}
	stats := e.CacheStats()
	if stats.Entries != 1 || stats.Misses != 1 || stats.Hits != 2 {
		t.Errorf("cache entries=%d misses=%d hits=%d, want 1/1/2", stats.Entries, stats.Misses, stats.Hits)
	}

	out, err := scalana.Run(scalana.RunConfig{App: app, NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Graph.Opts != psg.DefaultOptions() {
		t.Errorf("Run compiled with %+v, want the defaults", out.Graph.Opts)
	}
}

// TestBaselineToolOutputsArePinned pins what the two baseline tools
// produce on one small run (cg, np=8, seed 7) to committed numbers: the
// virtual makespan, the summed storage size and a SHA-256 of the payload's
// JSON encoding. The "scalana" tool has its own anchor, the wire fixtures
// under testdata/. Both engines of the difftest harness reach the tool
// through one mpisim hook path, so a change to how events reach a hook
// shows here, not there.
func TestBaselineToolOutputsArePinned(t *testing.T) {
	for _, tc := range []struct {
		tool, elapsed string
		storage       int64
		sha           string
	}{
		{"hpctk", "0.7749754480545906", 66472, "e2a8d5a956b025cc22c9b98ae93bcbe3c1a7ca6d10f6b49c2e8c9c5feef09ad4"},
		{"tracer", "0.7813806480545744", 1517400, "ff262d80659a0c80505e24c30c69bdfb23a9e1787c5def25a5912a92ff1b30e6"},
	} {
		out, err := scalana.Run(scalana.RunConfig{App: scalana.GetApp("cg"), NP: 8, Seed: 7, ToolName: tc.tool})
		if err != nil {
			t.Fatalf("%s: %v", tc.tool, err)
		}
		data, err := json.Marshal(out.Data)
		if err != nil {
			t.Fatalf("%s: encode payload: %v", tc.tool, err)
		}
		elapsed := strconv.FormatFloat(out.Result.Elapsed, 'g', -1, 64)
		sha := fmt.Sprintf("%x", sha256.Sum256(data))
		if elapsed != tc.elapsed || out.StorageBytes() != tc.storage || sha != tc.sha {
			t.Errorf("%s: elapsed %s, storage %d B, payload sha256 %s\nwant     %s, %d B, %s",
				tc.tool, elapsed, out.StorageBytes(), sha, tc.elapsed, tc.storage, tc.sha)
		}
	}
}
