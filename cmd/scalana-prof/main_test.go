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
const toolListing = `commmatrix   communication-volume collector: per-vertex send/recv bytes and message counts plus the rank-to-rank traffic matrix
hpctk        HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence
scalana      graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)
tracer       Scalasca-like tracer: every MPI event and region transition logged as a timestamped record
`

// TestToolListingBytes pins what a user sees of the tools: the listing
// both binaries print, and the refusal of a name that is not in it.
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
}
