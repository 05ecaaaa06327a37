package serve

import (
	"strings"
	"testing"
	"time"
)

// TestPanicReleasesTheFlight: a computation that panics is an error, and
// its flight is gone, so the next identical request computes again
// instead of waiting forever on a flight nobody will finish.
func TestPanicReleasesTheFlight(t *testing.T) {
	var g flightGroup
	var c flightCount
	_, err := g.Do("k", &c, func() ([]byte, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking computation: err = %v, want one naming the panic", err)
	}
	done := make(chan struct{})
	var data []byte
	go func() {
		defer close(done)
		data, err = g.Do("k", &c, func() ([]byte, error) { return []byte("ok"), nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a second Do on the key blocked on the panicked flight")
	}
	if err != nil || string(data) != "ok" {
		t.Errorf("second Do = %q, %v; want \"ok\", nil", data, err)
	}
	if got := c.computes.Load(); got != 2 {
		t.Errorf("%d computations, want 2", got)
	}
}
