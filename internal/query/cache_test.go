package query

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scalana/internal/baseline"
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

// TestDetectChargesASampleItsBytes: after one detect over cg [4,8] the
// cache is charged the np=8 graph's graphCharge, the np=4 sample's
// sampleBytes and the np=4 set's length: a detect's sample keeps the
// stored bytes it was read from, which the next hit compares the file
// with.
func TestDetectChargesASampleItsBytes(t *testing.T) {
	e := fixtureEnv(t, false)
	e.Cache = &Cache{}
	cg := scalana.GetApp("cg")
	plan, err := e.Detect(Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bytes(); err != nil {
		t.Fatal(err)
	}
	four, err := e.Store.Only("cg", 4)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := e.Store.Only("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	smp := e.Cache.get(slot{key: four.Key})
	pg, pgData := e.Cache.graph(eight.Key)
	if smp == nil || pg == nil {
		t.Fatalf("a detect over cg [4,8] cached sample=%t graph=%t, want both", smp != nil, pg != nil)
	}
	if int64(len(smp.data)) != four.Size {
		t.Errorf("the np=4 sample keeps %d bytes, the stored set is %d", len(smp.data), four.Size)
	}
	want := graphCharge(pg, pgData) + sampleBytes(smp.smp) + four.Size
	if got := e.Cache.Stats().Bytes; got != want {
		t.Errorf("the cache is charged %d bytes, want %d: graph %d + sample %d + np=4 set %d",
			got, want, graphCharge(pg, pgData), sampleBytes(smp.smp), four.Size)
	}
}

// TestDetectKeepsTheBytesOfAWatchSample: a watch caches the samples of cg
// np 4 and 8 without their bytes. Two detects over [4,8] then ingest
// nothing: the first reads the np=4 set once more, through Get, and
// replaces its sample's entry with one that keeps those bytes, so the
// cache's bytes rise by the np=8 graph's charge and exactly the np=4
// set's length; the second only compares the file with them. A byte
// flipped in the np=4 file is still store.ErrCorrupt naming the hash
// mismatch (a 500 from the service), and the detect answers its bytes
// again once the byte is put back.
func TestDetectKeepsTheBytesOfAWatchSample(t *testing.T) {
	e := fixtureEnv(t, false)
	e.Cache = &Cache{}
	cg := scalana.GetApp("cg")
	for _, np := range []int{4, 8} {
		plan, err := e.Watch(Watch{App: cg, NP: np, Params: baseline.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Bytes(); err != nil {
			t.Fatal(err)
		}
	}
	four, err := e.Store.Only("cg", 4)
	if err != nil {
		t.Fatal(err)
	}
	watched := e.Cache.Stats()
	if smp := e.Cache.get(slot{key: four.Key}); smp == nil || smp.data != nil || watched.Samples != 2 || watched.Ingests != 2 {
		t.Fatalf("after the watches: np=4 sample held=%t, stats %+v; want held without bytes, 2 samples, 2 ingests", smp != nil, watched)
	}
	want := allPPG(t, e, cg, []int{4, 8}, detect.DefaultConfig())
	plan, err := e.Detect(Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := plan.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("detect %d after the watches: %d bytes (err %v), want %d", i, len(got), err, len(want))
		}
	}
	eight, err := e.Store.Only("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, pgData := e.Cache.graph(eight.Key)
	if pg == nil {
		t.Fatal("the np=8 graph is not cached")
	}
	st := e.Cache.Stats()
	if st.Ingests != watched.Ingests || st.Samples != 2 || st.Decodes != 1 {
		t.Errorf("two detects after the watches: %d ingests, %d samples, %d decodes; want %d, 2 and 1", st.Ingests, st.Samples, st.Decodes, watched.Ingests)
	}
	if rise := st.Bytes - watched.Bytes; rise != graphCharge(pg, pgData)+four.Size {
		t.Errorf("two detects raised the cache's bytes by %d, want the np=8 graph's %d and the np=4 set's %d", rise, graphCharge(pg, pgData), four.Size)
	}
	if smp := e.Cache.get(slot{key: four.Key}); smp == nil || int64(len(smp.data)) != four.Size {
		t.Errorf("the np=4 sample is not held with the stored set's %d bytes", four.Size)
	}

	path := filepath.Join(e.Store.Root(), "cg", "4", four.Hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bytes(); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "content hash mismatch") {
		t.Errorf("detect over a flipped np=4 file: %v, want store.ErrCorrupt naming the content hash mismatch", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := plan.Bytes(); err != nil || !bytes.Equal(got, want) {
		t.Errorf("detect with the byte put back: %d bytes (err %v), want %d", len(got), err, len(want))
	}
	if st := e.Cache.Stats(); st.Ingests != watched.Ingests {
		t.Errorf("the detects ingested %d samples, want 0", st.Ingests-watched.Ingests)
	}
}
