package serve

import (
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation and its eventual result.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// flightCount tallies one endpoint's flights: computations performed,
// and requests answered by joining one already in flight.
type flightCount struct{ computes, coalesced atomic.Int64 }

// flightGroup gives request-level dedup (single-flight): concurrent
// calls with one key run the function once and share its result. Unlike
// a cache, nothing outlives the computation — the entry is removed as
// soon as the result is published, so a later identical request
// recomputes (detection inputs are content-addressed, but detect
// configs and simulate parameters are not worth caching speculatively).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// Do runs fn under key, coalescing concurrent duplicates. A caller that
// finds an in-flight computation is counted before it blocks waiting —
// that ordering is what lets tests deterministically observe "a second
// request has coalesced" while the first is still computing.
func (g *flightGroup) Do(key string, c *flightCount, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.data, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	c.computes.Add(1)
	f.data, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.data, f.err
}
