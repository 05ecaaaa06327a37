package query

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"scalana/internal/baseline"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/store"
)

// CacheBudget is the most bytes a Cache charges its entries: 14 decoded
// zeusmp np=1024 graphs with the bytes each was decoded from, the three
// graphs of 11 stored detects over zeusmp 64/256/1024 (5.8 MB a detect), or
// a quarter of a million zeusmp samples a watch ingested.
const CacheBudget = 64 << 20

// Cache holds what stored sets reduce to, by store key: the baseline
// sample a watch reads for every run, and the decoded PPG of every scale a
// stored detect reads. A graph keeps the stored bytes it was decoded from,
// so a hit compares the stored file with them (store.Store.Holds) instead
// of hashing it; a sample keeps none, as the watch checks nothing on a hit
// and a long history's bytes would not fit the budget. Every entry derives
// from content-addressed bytes alone, so it never goes stale; a concurrent
// double miss is wasted work, never a wrong answer, and the first entry
// put stays. An entry in the map is shared by every query that reads it
// and written by none.
//
// Each entry is charged the bytes it retains (graphCharge, sampleBytes).
// An insert past the budget evicts the least-recently-used entries, and an
// entry larger than the whole budget is not kept. A hit allocates nothing.
// A nil *Cache caches nothing. Safe for concurrent use.
type Cache struct {
	// budget replaces CacheBudget when positive: how a test evicts.
	budget int64

	mu                          sync.Mutex
	m                           map[slot]*cached
	held                        int64  // bytes charged by the entries in m
	tick                        uint64 // advanced by every hit and insert
	samples                     int    // entries in m holding a sample
	ingests, decodes, evictions int64
}

// slot addresses one entry: a stored set's sample, or its graph.
type slot struct {
	key   store.Key
	graph bool
}

// cached is one entry. Only used changes once it is in the map, and only
// under Cache.mu.
type cached struct {
	smp  *baseline.Sample
	pg   *ppg.Graph
	data []byte // the stored bytes pg was decoded from
	size int64
	used uint64
}

// CacheStats is a snapshot of a Cache's counters.
type CacheStats struct {
	// Samples is how many samples the cache holds.
	Samples int
	// Ingests counts samples ingested for a watch and Decodes graphs
	// decoded for a stored detect's scales: the cache's misses.
	Ingests, Decodes int64
	// Bytes is what the held entries are charged; Evictions counts the
	// entries dropped to keep it within the budget.
	Bytes     int64
	Evictions int64
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Samples: c.samples, Ingests: c.ingests, Decodes: c.decodes, Bytes: c.held, Evictions: c.evictions}
}

// sample returns the cached sample of a stored set, or nil.
func (c *Cache) sample(k store.Key) *baseline.Sample {
	if e := c.get(slot{key: k}); e != nil {
		return e.smp
	}
	return nil
}

// graph returns the cached PPG of a stored set and the bytes it was
// decoded from, or nil.
func (c *Cache) graph(k store.Key) (*ppg.Graph, []byte) {
	if e := c.get(slot{key: k, graph: true}); e != nil {
		return e.pg, e.data
	}
	return nil, nil
}

// addSample counts an ingest and caches its sample.
func (c *Cache) addSample(k store.Key, smp *baseline.Sample) {
	c.put(slot{key: k}, &cached{smp: smp, size: sampleBytes(smp)})
}

// addGraph counts a decode and caches its graph with the bytes it was
// decoded from.
func (c *Cache) addGraph(k store.Key, pg *ppg.Graph, data []byte) {
	c.put(slot{key: k, graph: true}, &cached{pg: pg, data: data, size: graphCharge(pg, data)})
}

func (c *Cache) get(s slot) *cached {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[s]
	if e != nil {
		c.tick++
		e.used = c.tick
	}
	return e
}

// put counts a miss and caches e at s, unless an entry is already there.
func (c *Cache) put(s slot, e *cached) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.graph {
		c.decodes++
	} else {
		c.ingests++
	}
	budget := c.budget
	if budget <= 0 {
		budget = CacheBudget
	}
	if e.size > budget || c.m[s] != nil {
		return
	}
	if c.held+e.size > budget {
		c.evict(budget - e.size)
	}
	if c.m == nil {
		c.m = map[slot]*cached{}
	}
	c.tick++
	e.used = c.tick
	c.m[s] = e
	c.held += e.size
	if !s.graph {
		c.samples++
	}
}

// evict drops entries, least recently used first, until the held bytes
// are at most limit. Caller holds c.mu.
func (c *Cache) evict(limit int64) {
	slots := make([]slot, 0, len(c.m))
	for s := range c.m {
		slots = append(slots, s)
	}
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(c.m[a].used, c.m[b].used) })
	for _, s := range slots {
		if c.held <= limit {
			return
		}
		c.drop(s)
		c.evictions++
	}
}

// drop removes the entry at s. Caller holds c.mu.
func (c *Cache) drop(s slot) {
	c.held -= c.m[s].size
	if !s.graph {
		c.samples--
	}
	delete(c.m, s)
}

// sampleBytes is what a cached sample is charged: its values.
func sampleBytes(smp *baseline.Sample) int64 {
	return int64(len(smp.Values)) * int64(unsafe.Sizeof(float64(0)))
}

// graphCharge is what a cached graph is charged: graphBytes, plus the
// stored bytes it was decoded from. Zeusmp at np=1024 is charged 4.54 MB,
// 2.18 MB of it stored bytes.
func graphCharge(pg *ppg.Graph, data []byte) int64 { return graphBytes(pg) + int64(len(data)) }

// graphBytes is what a decoded graph retains: its columnar Perf block, its
// dependence edges (a map entry per waiting side, a pointer and a DepEdge
// per edge), its per-rank times and its per-vertex total and merged
// times. Zeusmp at np=1024 comes to 2.36 MB of the 2.62 MB its decoded
// graph keeps live; the rest is map and arena slack.
func graphBytes(pg *ppg.Graph) int64 {
	n := int64(len(pg.Perf))*int64(unsafe.Sizeof(prof.PerfData{})) +
		int64(len(pg.RankTime)+2*pg.NumVIDs())*int64(unsafe.Sizeof(float64(0)))
	const entry = int64(unsafe.Sizeof(ppg.EdgeFrom{}) + unsafe.Sizeof([]*ppg.DepEdge(nil)))
	const edge = int64(unsafe.Sizeof((*ppg.DepEdge)(nil)) + unsafe.Sizeof(ppg.DepEdge{}))
	for _, es := range pg.Edges {
		n += entry + int64(len(es))*edge
	}
	return n
}
