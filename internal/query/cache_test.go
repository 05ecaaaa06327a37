package query

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scalana/internal/baseline"
	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/store"

	scalana "scalana"
)

// TestCacheEvictsLeastRecentlyUsed: with a budget of two cg graphs, a
// third evicts the one read least recently, the bytes held never exceed
// the budget, a hit returns the graph with its stamp and allocates
// nothing, and a graph larger than the whole budget is decoded but not
// kept.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	cg := scalana.GetApp("cg")
	e := fixtureEnv(t, false)
	pg := largestGraph(t, e, cg, []int{8})
	ent, err := e.Store.Only("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.Store.Read(ent.Key)
	if err != nil {
		t.Fatal(err)
	}
	size := graphBytes(pg)
	c := &Cache{budget: 2 * size}
	held := func(c *Cache, k store.Key) *ppg.Graph {
		got, gotStamp := c.graph(k)
		if got != nil && gotStamp != st {
			t.Fatalf("the graph of %s is held without the stamp it was added with", k.Hash[:1])
		}
		return got
	}
	a, b, third := store.Key{App: "cg", NP: 8, Hash: hash("a")}, store.Key{App: "cg", NP: 8, Hash: hash("b")}, store.Key{App: "cg", NP: 8, Hash: hash("c")}
	for _, k := range []store.Key{a, b} {
		c.addGraph(k, pg, st)
		if held := c.Stats().Bytes; held > c.budget {
			t.Fatalf("after adding %s the cache holds %d bytes of a %d budget", k.Hash[:1], held, c.budget)
		}
	}
	if held(c, a) != pg { // a is now more recent than b
		t.Fatal("a graph added within the budget is not held")
	}
	c.addGraph(third, pg, st)
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
	small.addGraph(a, pg, st)
	if st := small.Stats(); held(small, a) != nil || st.Bytes != 0 || st.Decodes != 1 || st.Evictions != 0 {
		t.Errorf("a graph over the whole budget: held=%t, stats %+v, want not held, 1 decode", held(small, a) != nil, st)
	}
}

// TestConcurrentDetectsShareOneGraph: eight goroutines detect over the
// cached np=4 and np=8 graphs at once. Every answer has the bytes of
// detect.Detect over freshly decoded graphs, and each graph was decoded
// once: the detects read them and none writes them (the race detector
// checks).
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
	if _, err := run(); err != nil { // caches both graphs
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
	if st := e.Cache.Stats(); st.Decodes != 2 || st.Ingests != 0 {
		t.Errorf("33 detects decoded %d graphs and ingested %d samples, want 2 and 0", st.Decodes, st.Ingests)
	}
}

// TestRemovedAfterCachingReadsAsUncached: a stored set removed after the
// cache took its graph (np=4 or np=8) fails a detect planned
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

// TestWarmDetectSeesEveryChange: once a warm detect over cg [4,8] checks
// its cached graphs by stat alone, a change to a stored file makes the
// next warm detect fail with the error a detect through no cache gives
// over the same store: the file rewritten in place with one byte changed
// (its mtime restored or not), another file with those bytes and that
// mtime renamed over it, cut one byte short, grown by one, its last byte
// flipped, removed, or a directory in its place. Put back, the sets
// answer from the cache again with no decode.
func TestWarmDetectSeesEveryChange(t *testing.T) {
	uncached := fixtureEnv(t, false)
	cached := uncached
	cached.Cache = &Cache{}
	cg := scalana.GetApp("cg")
	q := Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()}
	plan, err := cached.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	uncachedPlan, err := uncached.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncachedPlan.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bytes(); err != nil {
		t.Fatal(err)
	}
	decodes := cached.Cache.Stats().Decodes
	flip := func(at func([]byte) int) func([]byte) []byte {
		return func(data []byte) []byte {
			data = bytes.Clone(data)
			data[at(data)] ^= 1
			return data
		}
	}
	middle := flip(func(data []byte) int { return len(data) / 2 })
	rewrite := func(mutate func([]byte) []byte) func(path string, data []byte) error {
		return func(path string, data []byte) error { return os.WriteFile(path, mutate(data), 0o644) }
	}
	for _, tc := range []struct {
		np     int
		name   string
		change func(path string, data []byte) error
	}{
		{8, "rewritten in place", rewrite(middle)},
		{4, "rewritten in place", rewrite(middle)},
		{8, "rewritten with its mtime restored", func(path string, data []byte) error {
			info, err := os.Stat(path)
			if err == nil {
				err = os.WriteFile(path, middle(data), 0o644)
			}
			if err == nil {
				err = os.Chtimes(path, info.ModTime(), info.ModTime())
			}
			return err
		}},
		{8, "another file renamed over it", func(path string, data []byte) error {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			other := path + ".other"
			if err := os.WriteFile(other, middle(data), 0o644); err != nil {
				return err
			}
			if err := os.Chtimes(other, info.ModTime(), info.ModTime()); err != nil {
				return err
			}
			return os.Rename(other, path)
		}},
		{8, "one byte short", rewrite(func(data []byte) []byte { return data[:len(data)-1] })},
		{8, "one byte long", rewrite(func(data []byte) []byte { return append(bytes.Clone(data), ' ') })},
		{8, "the last byte flipped", rewrite(flip(func(data []byte) int { return len(data) - 1 }))},
		{8, "removed", func(path string, _ []byte) error { return os.Remove(path) }},
		{8, "a directory in its place", func(path string, _ []byte) error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Mkdir(path, 0o755)
		}},
	} {
		waitClean(t, cached.Cache, plan)
		ent, err := uncached.Store.Only("cg", tc.np)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(uncached.Store.Root(), "cg", fmt.Sprint(tc.np), ent.Hash+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.change(path, data); err != nil {
			t.Fatal(err)
		}
		rereads := cached.Cache.Stats().Rereads
		_, wantErr := uncachedPlan.Bytes()
		_, got := plan.Bytes()
		if wantErr == nil || got == nil || got.Error() != wantErr.Error() {
			t.Errorf("np=%d %s: a warm detect says %v, the uncached path %v", tc.np, tc.name, got, wantErr)
		}
		if cached.Cache.Stats().Rereads == rereads {
			t.Errorf("np=%d %s: the warm detect read no file again", tc.np, tc.name)
		}
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := plan.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("np=%d put back after %s: %d bytes (err %v), want the uncached path's %d", tc.np, tc.name, len(got), err, len(want))
		}
		if st := cached.Cache.Stats(); st.Decodes != decodes {
			t.Errorf("np=%d put back after %s: %d decodes, want %d", tc.np, tc.name, st.Decodes, decodes)
		}
	}
}

// TestWarmDetectRereadsNothing: once the racy window has passed, warm
// detects over cg [4,8] read no stored file again and decode nothing, and
// a file rewritten with its own bytes is read once more and then not.
func TestWarmDetectRereadsNothing(t *testing.T) {
	e := fixtureEnv(t, false)
	e.Cache = &Cache{}
	plan, err := e.Detect(Detect{App: scalana.GetApp("cg"), Scales: []int{4, 8}, Config: detect.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bytes(); err != nil {
		t.Fatal(err)
	}
	waitClean(t, e.Cache, plan)
	before := e.Cache.Stats()
	for i := 0; i < 3; i++ {
		if _, err := plan.Bytes(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Cache.Stats(); st.Rereads != before.Rereads || st.Decodes != before.Decodes {
		t.Errorf("three warm detects after the window: %d rereads and %d decodes, want none", st.Rereads-before.Rereads, st.Decodes-before.Decodes)
	}

	ent, err := e.Store.Only("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(e.Store.Root(), "cg", "8", ent.Hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bytes(); err != nil {
		t.Fatal(err)
	}
	if st := e.Cache.Stats(); st.Rereads != before.Rereads+1 || st.Decodes != before.Decodes {
		t.Errorf("a detect after the np=8 file was rewritten: %d rereads and %d decodes, want 1 and none", st.Rereads-before.Rereads, st.Decodes-before.Decodes)
	}
	waitClean(t, e.Cache, plan)
}

// TestDetectChargesItsGraphs: after one detect over cg [4,8] the cache
// holds both scales' graphs, each with the stamp of the stored file it was
// decoded from, and is charged the sum of their graphBytes.
func TestDetectChargesItsGraphs(t *testing.T) {
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
	var want int64
	for _, np := range []int{4, 8} {
		ent, err := e.Store.Only("cg", np)
		if err != nil {
			t.Fatal(err)
		}
		pg, st := e.Cache.graph(ent.Key)
		if pg == nil || st == (store.Stamp{}) {
			t.Fatalf("the np=%d graph is held=%t with stamp %+v, want held with its file's", np, pg != nil, st)
		}
		want += graphBytes(pg)
	}
	if got := e.Cache.Stats().Bytes; got != want {
		t.Errorf("the cache is charged %d bytes, want the two graphs' %d", got, want)
	}
}

// TestDetectAfterAWatchDecodesEachScaleOnce: watches over cg np 4 and 8
// cache both samples; two detects over [4,8] after them ingest nothing,
// decode each scale once, and answer the bytes a detect through a fresh
// cache answers.
func TestDetectAfterAWatchDecodesEachScaleOnce(t *testing.T) {
	e := fixtureEnv(t, false)
	fresh := e
	e.Cache, fresh.Cache = &Cache{}, &Cache{}
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
	watched := e.Cache.Stats()
	if watched.Samples != 2 || watched.Ingests != 2 || watched.Decodes != 0 {
		t.Fatalf("after the watches: stats %+v; want 2 samples, 2 ingests, no decode", watched)
	}
	q := Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()}
	freshPlan, err := fresh.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshPlan.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := plan.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("detect %d after the watches: %d bytes (err %v), want a fresh cache's %d", i, len(got), err, len(want))
		}
	}
	if st := e.Cache.Stats(); st.Ingests != watched.Ingests || st.Samples != 2 || st.Decodes != 2 {
		t.Errorf("two detects after the watches: %d ingests, %d samples, %d decodes; want %d, 2 and 2", st.Ingests, st.Samples, st.Decodes, watched.Ingests)
	}
}
