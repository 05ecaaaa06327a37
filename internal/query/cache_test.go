package query

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/store"

	scalana "scalana"
)

// TestCacheEvictsLeastRecentlyUsed: with a budget of two cg graphs, each
// charged with the bytes it was decoded from, a third evicts the one read
// least recently, the bytes held never exceed the budget, a hit returns
// the graph with its bytes and allocates nothing, and a graph larger than
// the whole budget is decoded but not kept.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	cg := scalana.GetApp("cg")
	pg, data := largestGraph(t, fixtureEnv(t, false), cg, []int{8})
	size := graphCharge(pg, data)
	c := &Cache{budget: 2 * size}
	held := func(c *Cache, k store.Key) *ppg.Graph {
		got, gotData := c.graph(k)
		if got != nil && &gotData[0] != &data[0] {
			t.Fatalf("the graph of %s is held without the bytes it was decoded from", k.Hash[:1])
		}
		return got
	}
	a, b, third := store.Key{App: "cg", NP: 8, Hash: hash("a")}, store.Key{App: "cg", NP: 8, Hash: hash("b")}, store.Key{App: "cg", NP: 8, Hash: hash("c")}
	for _, k := range []store.Key{a, b} {
		c.addGraph(k, pg, data)
		if held := c.Stats().Bytes; held > c.budget {
			t.Fatalf("after adding %s the cache holds %d bytes of a %d budget", k.Hash[:1], held, c.budget)
		}
	}
	if held(c, a) != pg { // a is now more recent than b
		t.Fatal("a graph added within the budget is not held")
	}
	c.addGraph(third, pg, data)
	if held(c, a) != pg || held(c, b) != nil || held(c, third) != pg {
		t.Errorf("after a third graph the cache holds a=%t b=%t c=%t, want a and c", held(c, a) != nil, held(c, b) != nil, held(c, third) != nil)
	}
	if st := c.Stats(); st.Bytes != 2*size || st.Evictions != 1 || st.Decodes != 3 {
		t.Errorf("stats %+v, want %d bytes, 1 eviction, 3 decodes", st, 2*size)
	}
	if n := testing.AllocsPerRun(100, func() { c.graph(a) }); n != 0 {
		t.Errorf("a cache hit allocates %.0f objects, want 0", n)
	}

	small := &Cache{budget: size - 1}
	small.addGraph(a, pg, data)
	if st := small.Stats(); held(small, a) != nil || st.Bytes != 0 || st.Decodes != 1 || st.Evictions != 0 {
		t.Errorf("a graph over the whole budget: held=%t, stats %+v, want not held, 1 decode", held(small, a) != nil, st)
	}
}

// TestConcurrentDetectsShareOneGraph: eight goroutines detect over one
// cached np=8 graph at once. Every answer has the bytes of detect.Detect
// over freshly decoded graphs, and the graph was decoded once: the
// detects read it and none writes it (the race detector checks).
func TestConcurrentDetectsShareOneGraph(t *testing.T) {
	e := fixtureEnv(t, false)
	e.Cache = &Cache{}
	cg := scalana.GetApp("cg")
	cfg := detect.DefaultConfig()
	want := allPPG(t, e, cg, []int{4, 8}, cfg)
	run := func() ([]byte, error) {
		plan, err := e.Detect(Detect{App: cg, Scales: []int{4, 8}, Config: cfg})
		if err != nil {
			return nil, err
		}
		return plan.Bytes()
	}
	if _, err := run(); err != nil { // caches the graph and the sample
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got, err := run(); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent detect: %d bytes (err %v), want %d", len(got), err, len(want))
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Cache.Stats(); st.Decodes != 1 || st.Ingests != 1 {
		t.Errorf("33 detects decoded %d graphs and ingested %d samples, want 1 and 1", st.Decodes, st.Ingests)
	}
}

// TestRemovedAfterCachingReadsAsUncached: a stored set removed after the
// cache took its sample (np=4) or its graph (np=8) fails a detect planned
// before the removal with the error the uncached path gives, and one
// planned after it with the same planning error.
func TestRemovedAfterCachingReadsAsUncached(t *testing.T) {
	cg := scalana.GetApp("cg")
	q := Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()}
	for _, np := range []int{4, 8} {
		uncached := fixtureEnv(t, false)
		cached := uncached
		cached.Cache = &Cache{}
		plans := map[string]Plan[*detect.Report]{}
		for name, e := range map[string]Env{"uncached": uncached, "cached": cached} {
			plan, err := e.Detect(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Bytes(); err != nil {
				t.Fatal(err)
			}
			plans[name] = plan
		}
		ent, err := uncached.Store.Only("cg", np)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(uncached.Store.Root(), "cg", fmt.Sprint(np), ent.Hash+".json")); err != nil {
			t.Fatal(err)
		}
		_, want := plans["uncached"].Bytes()
		_, got := plans["cached"].Bytes()
		if !errors.Is(want, os.ErrNotExist) || got == nil || got.Error() != want.Error() {
			t.Errorf("np=%d removed after caching: %v, the uncached path %v", np, got, want)
		}
		_, want = uncached.Detect(q)
		_, got = cached.Detect(q)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("np=%d removed, planned after: %v, the uncached path %v", np, got, want)
		}
	}
}
