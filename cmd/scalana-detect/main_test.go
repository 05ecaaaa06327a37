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

	"scalana/internal/scales"
	"scalana/internal/store"
)

// detectBin is the command built once for the whole test binary.
var detectBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scalana-detect-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	detectBin = filepath.Join(dir, "scalana-detect")
	if out, err := exec.Command("go", "build", "-o", detectBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build scalana-detect: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// detectCmd executes the command and returns its exit code, stdout and stderr.
func detectCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(detectBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("scalana-detect %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// fixtureStore stores the committed cg fixtures (np 4 and 8).
func fixtureStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{4, 8} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("cg.%d.json", np)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put("cg", np, data); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStoreDefaultsToEveryStoredScale: -store with no -scales selects
// every stored scale, as POST /v1/detect does with no "scales" — it
// used to look for the simulate-mode default 4,8,16,32 and fail.
func TestStoreDefaultsToEveryStoredScale(t *testing.T) {
	dir := fixtureStore(t)
	code, all, stderr := detectCmd(t, "-app", "cg", "-store", dir, "-json", "-")
	if code != 0 {
		t.Fatalf("-store without -scales: exit %d: %s", code, stderr)
	}
	code, named, stderr := detectCmd(t, "-app", "cg", "-store", dir, "-scales", "4,8", "-json", "-")
	if code != 0 {
		t.Fatalf("-store -scales 4,8: exit %d: %s", code, stderr)
	}
	if all != named {
		t.Errorf("-store without -scales wrote %d bytes, with -scales 4,8 %d bytes", len(all), len(named))
	}
	if code, _, stderr := detectCmd(t, "-app", "cg", "-store", dir, "-scales", "4,8,16"); code != 1 || !strings.Contains(stderr, "np=16") {
		t.Errorf("explicit unstored scale: exit %d (%s), want 1 naming np=16", code, stderr)
	}
}

// TestScaleCountIsCapped: -scales naming more than scales.MaxScales
// scales exits 1 before simulating any of them.
func TestScaleCountIsCapped(t *testing.T) {
	list := make([]string, scales.MaxScales+1)
	for i := range list {
		list[i] = fmt.Sprint(4 + i)
	}
	code, _, stderr := detectCmd(t, "-app", "cg", "-scales", strings.Join(list, ","))
	if want := fmt.Sprintf("at most %d", scales.MaxScales); code != 1 || !strings.Contains(stderr, want) {
		t.Errorf("-scales with %d entries: exit %d (%s), want 1 with %q", len(list), code, stderr, want)
	}
}

// TestInvalidDetectConfigExits1: a negative -topk used to panic with a
// slice bound out of range, a NaN -abnorm-thd flagged every vertex, a
// NaN or infinite -hz panicked in the sampler, and a zero or negative
// one silently profiled at 200 Hz. All are refused before anything is
// simulated.
func TestInvalidDetectConfigExits1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-topk", "-1"}, "negative topk -1"},
		{[]string{"-abnorm-thd", "NaN"}, "NaN threshold"},
		{[]string{"-hz", "NaN"}, "sampling rate NaN Hz"},
		{[]string{"-hz", "Inf"}, "sampling rate +Inf Hz"},
		{[]string{"-hz", "-5"}, "sampling rate -5 Hz"},
		{[]string{"-hz", "0"}, "sampling rate 0 Hz"},
		{[]string{"-parallel", "-2"}, "-parallel -2: must be at least 0"},
	} {
		args := append([]string{"-app", "cg", "-scales", "4,8"}, tc.args...)
		if code, _, stderr := detectCmd(t, args...); code != 1 || !strings.HasPrefix(stderr, "scalana-detect: ") ||
			!strings.Contains(stderr, tc.msg) || strings.Contains(stderr, "panic") {
			t.Errorf("%v: exit %d (%s), want 1 with %q and no panic", tc.args, code, stderr, tc.msg)
		}
	}
}
