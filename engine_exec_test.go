package scalana_test

import (
	"bytes"
	"sync"
	"testing"

	"scalana/internal/prof"

	scalana "scalana"
)

// TestEngineColdStartCompilesOnce races eight goroutines' first Run on a
// cold Engine. Under -race this exercises the compile cache and the
// graph's single-flight bytecode compilation (psg.Graph.CompileExec)
// while every caller is still a first caller; it asserts exactly one
// compile miss and byte-identical encoded profiles from every goroutine.
func TestEngineColdStartCompilesOnce(t *testing.T) {
	app := scalana.GetApp("cg")
	cfg := prof.DefaultConfig()
	e := scalana.NewEngine()

	const workers = 8
	encodings := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := e.Run(scalana.RunConfig{App: app, NP: 16, ToolName: "scalana", Prof: cfg})
			if err != nil {
				errs[w] = err
				return
			}
			ps := &prof.ProfileSet{App: app.Name, NP: 16, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()}
			encodings[w], errs[w] = ps.Encode()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if !bytes.Equal(encodings[0], encodings[w]) {
			t.Fatalf("worker %d profiles diverge from worker 0", w)
		}
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("cold start compiled %d times (%d hits), want 1 miss and %d hits", st.Misses, st.Hits, workers-1)
	}
}
