package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// profBin and benchBin are the commands built once for the whole test
// binary: this one and scalana-bench, which lists the same tools.
var profBin, benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scalana-prof-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	profBin = filepath.Join(dir, "scalana-prof")
	benchBin = filepath.Join(dir, "scalana-bench")
	for bin, pkg := range map[string]string{profBin: ".", benchBin: "../scalana-bench"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes bin and returns its exit code, stdout and stderr.
func run(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// toolListing is the committed -list-tools output.
const toolListing = `hpctk        HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence
scalana      graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)
tracer       Scalasca-like tracer: every MPI event and region transition logged as a timestamped record
`

// TestToolListingBytes pins what a user sees of the tools: the listing
// both binaries print, and the refusal of a name that is not in it, such
// as the communication-matrix collector this project no longer ships.
func TestToolListingBytes(t *testing.T) {
	if code, out, stderr := run(t, profBin, "-list-tools"); code != 0 || out != toolListing {
		t.Errorf("scalana-prof -list-tools: exit %d, stdout\n%s\nwant\n%s\nstderr: %s", code, out, toolListing, stderr)
	}
	if code, out, stderr := run(t, benchBin, "-tools"); code != 0 || out != toolListing {
		t.Errorf("scalana-bench -tools: exit %d, stdout\n%s\nwant\n%s\nstderr: %s", code, out, toolListing, stderr)
	}
	if code, _, stderr := run(t, profBin, "-app", "cg", "-np", "4", "-tool", "nope"); code != 1 || !strings.Contains(stderr, "nope") {
		t.Errorf("scalana-prof -tool nope: exit %d, stderr %q, want exit 1 naming the tool", code, stderr)
	}
	if code, _, stderr := run(t, profBin, "-app", "cg", "-np", "4", "-tool", "commmatrix"); code != 1 || !strings.Contains(stderr, `"commmatrix" (tools: hpctk, scalana, tracer)`) {
		t.Errorf("scalana-prof -tool commmatrix: exit %d, stderr %q, want exit 1 listing the three tools", code, stderr)
	}
}

// TestOutputNeedsTheScalanaTool: -o writes the scalana tool's profiles, so
// with another tool it exits 1 before anything is simulated.
func TestOutputNeedsTheScalanaTool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	code, out, stderr := run(t, profBin, "-app", "cg", "-np", "4", "-tool", "tracer", "-o", path)
	if code != 1 || !strings.Contains(stderr, "-o needs the scalana tool's profiles") || strings.Contains(out, "ran ") {
		t.Errorf("-tool tracer -o: exit %d, stdout %q, stderr %q, want exit 1 before any run", code, out, stderr)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-tool tracer -o wrote %s (stat: %v)", path, err)
	}
}

// TestBadRatesExit1: a NaN or infinite -hz used to panic in the sampler,
// a negative one silently profiled at 200 Hz, and a -comm-prob outside
// [0, 1] was accepted; each now exits 1 with a message. So do a -hz and
// a -comm-prob of 0, which prof.Config would read as its defaults.
func TestBadRatesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-hz", "NaN"}, {"-hz", "Inf"}, {"-hz", "-5"}, {"-hz", "0"},
		{"-comm-prob", "-1"}, {"-comm-prob", "2"}, {"-comm-prob", "NaN"}, {"-comm-prob", "0"},
	} {
		code, _, stderr := run(t, profBin, append([]string{"-app", "cg", "-np", "4"}, args...)...)
		if code != 1 || !strings.HasPrefix(stderr, "scalana-prof: ") || strings.Contains(stderr, "panic") {
			t.Errorf("%v: exit %d, stderr %q, want exit 1 with a message and no panic", args, code, stderr)
		}
		if args[1] == "0" && !strings.Contains(stderr, args[0]) {
			t.Errorf("%v: stderr %q does not name the flag", args, stderr)
		}
	}
}
