// Package ppg assembles the Program Performance Graph (paper §III-C): the
// per-process PSG is replicated across all ranks, each vertex carries the
// performance vector profiling collected on that rank, and inter-process
// communication dependence edges connect the vertices that waited to the
// vertices that kept them waiting.
//
// Storage is columnar (ISSUE 2, DESIGN.md §7): all per-vertex, per-rank
// performance vectors live in one contiguous block indexed
// [int(vid)*NP + rank], one allocation per scale instead of one map row
// per vertex, and dependence edges are keyed by interned psg.VID.
package ppg

import (
	"fmt"
	"sort"

	"scalana/internal/machine"
	"scalana/internal/par"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// EdgeFrom addresses the waiting side of a dependence edge: one vertex on
// one rank.
type EdgeFrom struct {
	VID  psg.VID
	Rank int
}

// DepEdge is one aggregated inter-process dependence edge: operations at
// (VID, Rank) waited TotalWait seconds in total on PeerRank, whose
// responsible code was PeerVID.
type DepEdge struct {
	PeerRank   int
	PeerVID    psg.VID
	Op         string
	Count      int64
	Bytes      float64
	TotalWait  float64
	MaxWait    float64
	Collective bool
}

// Graph is a Program Performance Graph for one job scale.
type Graph struct {
	PSG *psg.Graph
	NP  int
	// Perf is the columnar performance block: the vector profiling
	// collected for vertex vid on rank r is Perf[int(vid)*NP + r],
	// zero-valued where the rank never sampled the vertex. Use PerfAt /
	// TimeSeries / PMUSeries unless iterating the whole block.
	Perf []prof.PerfData
	// present[vid] records whether any rank attributed data to vid — the
	// equivalent of key presence in the old per-vertex map.
	present []bool
	// Edges holds inter-process dependence edges grouped by waiting side.
	Edges map[EdgeFrom][]*DepEdge
	// RankTime is each rank's total sampled time.
	RankTime []float64
	// Storage is the summed profile storage across ranks (bytes).
	Storage int64
}

// keyOf renders a VID through a symbol-table snapshot, with psg.VIDNone
// (and anything else out of range) as the empty string — the exact string
// the pre-VID representation stored for "no responsible vertex".
func keyOf(keys []string, vid psg.VID) string {
	if int(vid) >= len(keys) {
		return ""
	}
	return keys[vid]
}

// rankPart is one rank's independently-computed contribution to the
// graph, produced by the parallel phase of Build. Edges live in one
// arena per rank (edgeVals) with per-bucket views sliced out of one
// pointer arena — no per-edge or per-bucket allocation.
type rankPart struct {
	storage  int64
	time     float64
	edgeVals []DepEdge
	froms    []EdgeFrom
	buckets  [][]*DepEdge
	err      error
}

// Build assembles the PPG from the PSG and all rank profiles.
//
// Per-rank aggregation (storage sizing, rank time, dependence-edge
// compression) runs on a CPU-bounded worker pool; every rank writes only
// rank-owned state, and the cross-rank merge happens serially in rank
// order, so the assembled graph is identical to a serial build. Edge
// buckets are keyed by (vertex, rank) and therefore never shared between
// ranks; their final order comes from the deterministic sort below.
func Build(g *psg.Graph, profiles []*prof.RankProfile) (*Graph, error) {
	if err := prof.CheckRanks(profiles); err != nil {
		return nil, err
	}
	np := len(profiles)
	nv := g.NumVIDs()
	for _, rp := range profiles {
		// VIDs are dense per graph instance: a profile collected against a
		// different graph would attribute every sample to the wrong vertex
		// without this check (string keys were immune to that mixup).
		if rp.Graph != nil && rp.Graph != g {
			return nil, fmt.Errorf("ppg: profile for rank %d was collected against a different graph", rp.Rank)
		}
		if len(rp.Vertex) > nv {
			return nil, fmt.Errorf("ppg: profile for rank %d indexes %d vertices, symbol table has %d", rp.Rank, len(rp.Vertex), nv)
		}
	}
	pg := &Graph{
		PSG:      g,
		NP:       np,
		Perf:     make([]prof.PerfData, nv*np), // ONE block for the whole scale
		present:  make([]bool, nv),
		RankTime: make([]float64, np),
	}

	// The symbol table's keys plus one key-sorted VID order for the
	// whole build; the pre-VID build sorted key strings once per rank.
	keys := g.Keys()
	order := make([]psg.VID, nv)
	for i := range order {
		order[i] = psg.VID(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	parts := make([]rankPart, len(profiles))
	par.ForEach(len(profiles), 0, func(i int) {
		rp := profiles[i]
		part := rankPart{storage: rp.StorageBytes()}
		// Floating-point sums must not depend on storage order, or
		// "identical profiles in, identical graph out" breaks in the last
		// ulp: reduce in the fixed key-sorted order.
		for _, vid := range order {
			if pd := rp.PerfAt(vid); pd != nil {
				part.time += pd.Time
			}
		}
		// Aggregate dependence edges per (vertex, peer rank, peer vertex),
		// again in a fixed record order for the same reason: the canonical
		// order rp.Comm is kept in, verified here rather than re-derived.
		// Its sort key starts with exactly the aggregation fields — vertex,
		// op, peer rank, peer vertex — so records of one aggregated edge
		// form a contiguous run and records of one waiting vertex form a
		// contiguous run of runs: aggregation is a linear scan into a
		// per-rank arena, and each (vertex, rank) bucket is a subslice of
		// one pointer arena.
		if part.err = rp.CheckComm(keys); part.err != nil {
			parts[i] = part
			return
		}
		part.edgeVals = make([]DepEdge, 0, len(rp.Comm))
		edgeFrom := make([]psg.VID, 0, len(rp.Comm)) // waiting vertex per arena slot
		var last *prof.CommRecord
		for j := range rp.Comm {
			rec := &rp.Comm[j]
			if rec.DepRank < 0 {
				continue
			}
			n := len(part.edgeVals)
			if last == nil || last.VID != rec.VID || last.Op != rec.Op ||
				last.DepRank != rec.DepRank || last.DepVID != rec.DepVID {
				part.edgeVals = append(part.edgeVals, DepEdge{
					PeerRank: rec.DepRank, PeerVID: rec.DepVID, Op: rec.Op, Collective: rec.Collective,
				})
				edgeFrom = append(edgeFrom, rec.VID)
				n++
			}
			last = rec
			e := &part.edgeVals[n-1]
			e.Count += rec.Count
			e.Bytes += rec.Bytes * float64(rec.Count)
			e.TotalWait += rec.TotalWait
			if rec.MaxWait > e.MaxWait {
				e.MaxWait = rec.MaxWait
			}
		}
		ptrs := make([]*DepEdge, len(part.edgeVals))
		for j := range part.edgeVals {
			ptrs[j] = &part.edgeVals[j]
		}
		for start := 0; start < len(ptrs); {
			end := start + 1
			for end < len(ptrs) && edgeFrom[end] == edgeFrom[start] {
				end++
			}
			part.froms = append(part.froms, EdgeFrom{VID: edgeFrom[start], Rank: rp.Rank})
			part.buckets = append(part.buckets, ptrs[start:end:end])
			start = end
		}
		parts[i] = part
	})

	// Serial merge in rank order: presence union, storage and time
	// reductions, edge bucket splicing.
	nBuckets := 0
	for i := range parts {
		if parts[i].err != nil {
			return nil, fmt.Errorf("ppg: %w", parts[i].err)
		}
		nBuckets += len(parts[i].froms)
	}
	pg.Edges = make(map[EdgeFrom][]*DepEdge, nBuckets)
	for i, rp := range profiles {
		for vid := range rp.Vertex {
			if !pg.present[vid] && rp.Vertex[vid].Active() {
				pg.present[vid] = true
			}
		}
		pg.Storage += parts[i].storage
		pg.RankTime[rp.Rank] = parts[i].time
		for j, from := range parts[i].froms {
			pg.Edges[from] = parts[i].buckets[j]
		}
	}
	// Column filling touches disjoint rank slots of the one pre-allocated
	// block, so it fans out too.
	par.ForEach(len(profiles), 0, func(i int) {
		rp := profiles[i]
		for vid := range rp.Vertex {
			pg.Perf[vid*np+rp.Rank] = rp.Vertex[vid]
		}
	})

	// Deterministic edge ordering: heaviest wait first, with a total
	// tiebreak (on interned key strings, matching the pre-VID order) so
	// equal-wait edges order identically on every build.
	for from, edges := range pg.Edges {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].TotalWait != edges[j].TotalWait {
				return edges[i].TotalWait > edges[j].TotalWait
			}
			if edges[i].PeerRank != edges[j].PeerRank {
				return edges[i].PeerRank < edges[j].PeerRank
			}
			if ik, jk := keyOf(keys, edges[i].PeerVID), keyOf(keys, edges[j].PeerVID); ik != jk {
				return ik < jk
			}
			return edges[i].Op < edges[j].Op
		})
		pg.Edges[from] = edges
	}
	return pg, nil
}

// NumVIDs returns the size of the symbol table this graph's columnar
// block is laid out for.
func (pg *Graph) NumVIDs() int { return len(pg.present) }

// Present reports whether any rank attributed performance data to the
// vertex.
func (pg *Graph) Present(vid psg.VID) bool {
	return int(vid) < len(pg.present) && pg.present[vid]
}

// PresentVIDs returns, in ascending VID order, the vertices at least one
// rank attributed data to.
func (pg *Graph) PresentVIDs() []psg.VID {
	var out []psg.VID
	for vid, ok := range pg.present {
		if ok {
			out = append(out, psg.VID(vid))
		}
	}
	return out
}

// PerfAt returns the performance vector of one vertex on one rank (the
// zero value when never sampled or out of range).
func (pg *Graph) PerfAt(vid psg.VID, rank int) prof.PerfData {
	if int(vid) >= pg.NumVIDs() || rank < 0 || rank >= pg.NP {
		return prof.PerfData{}
	}
	return pg.Perf[int(vid)*pg.NP+rank]
}

// row returns the contiguous per-rank slice of one vertex, or nil when
// the VID is out of range.
func (pg *Graph) row(vid psg.VID) []prof.PerfData {
	if int(vid) >= pg.NumVIDs() {
		return nil
	}
	return pg.Perf[int(vid)*pg.NP : (int(vid)+1)*pg.NP]
}

// TimeSeries returns the per-rank sampled time of one vertex (length NP,
// zeros where the vertex never ran).
func (pg *Graph) TimeSeries(vid psg.VID) []float64 {
	out := make([]float64, pg.NP)
	for r, pd := range pg.row(vid) {
		out[r] = pd.Time
	}
	return out
}

// PMUSeries returns one counter's per-rank values for a vertex (the data
// behind the paper's Figs. 15 and 16).
func (pg *Graph) PMUSeries(vid psg.VID, c machine.Counter) []float64 {
	out := make([]float64, pg.NP)
	for r, pd := range pg.row(vid) {
		out[r] = pd.PMU[c]
	}
	return out
}

// TotalTime is the summed sampled time across ranks.
func (pg *Graph) TotalTime() float64 {
	var s float64
	for _, t := range pg.RankTime {
		s += t
	}
	return s
}

// BestEdge returns the dominant dependence edge out of (vid, rank): the
// one with the largest total waiting time, or nil. When pruneWaitless is
// set, edges whose waiting time never exceeded waitEps are ignored —
// the paper's search-space pruning ("we only preserve the communication
// dependence edge if a waiting event exists").
func (pg *Graph) BestEdge(vid psg.VID, rank int, pruneWaitless bool, waitEps float64) *DepEdge {
	edges := pg.Edges[EdgeFrom{VID: vid, Rank: rank}]
	for _, e := range edges {
		if pruneWaitless && e.MaxWait < waitEps {
			continue
		}
		return e // edges are sorted by TotalWait descending
	}
	return nil
}

// NumEdges counts all dependence edges (testing/reporting aid).
func (pg *Graph) NumEdges() int {
	n := 0
	for _, es := range pg.Edges {
		n += len(es)
	}
	return n
}
