package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestZeroFlagsExit1: synth.EvalConfig reads a zero SampleHz or TopK as
// its default, so -hz 0 used to profile at 5 kHz and -topk 0 to score
// top-3. Each now exits 1 naming the flag, as does a negative value.
func TestZeroFlagsExit1(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "scalana-synth")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-hz", "0"}, {"-hz", "-5"}, {"-topk", "0"}, {"-topk", "-1"}, {"-parallel", "-2"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-cases", "1", "-np-list", "4,8"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.HasPrefix(stderr.String(), "scalana-synth: "+args[0]) {
			t.Errorf("%v: exit %d, stderr %q, want exit 1 naming %s", args, code, stderr.String(), args[0])
		}
	}
}
