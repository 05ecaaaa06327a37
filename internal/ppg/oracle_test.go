package ppg

// buildOracle is Build as it was until Builder replaced it: every rank
// profile materialised, per-rank arenas filled by two par.ForEach fan-outs,
// a serial merge and a copy pass. It is kept, verbatim, as the reference
// the differential test holds Builder and Decode to — the same role
// prof's decodeOracle plays for the wire reader.

import (
	"fmt"
	"sort"

	"scalana/internal/par"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// rankPart is one rank's independently-computed contribution to the
// graph, produced by the parallel phase of buildOracle. Edges live in one
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

// buildOracle assembles the PPG from the PSG and all rank profiles.
//
// Per-rank aggregation (storage sizing, rank time, dependence-edge
// compression) runs on a CPU-bounded worker pool; every rank writes only
// rank-owned state, and the cross-rank merge happens serially in rank
// order, so the assembled graph is identical to a serial build. Edge
// buckets are keyed by (vertex, rank) and therefore never shared between
// ranks; their final order comes from the deterministic sort below.
func buildOracle(g *psg.Graph, profiles []*prof.RankProfile) (*Graph, error) {
	if err := checkRanksOracle(profiles); err != nil {
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

// checkRanksOracle reports whether profiles is one complete job: every rank of
// the np its first profile names, each exactly once, all agreeing on np.
func checkRanksOracle(profiles []*prof.RankProfile) error {
	if len(profiles) == 0 {
		return fmt.Errorf("ppg: no profiles")
	}
	np := profiles[0].NP
	if len(profiles) != np {
		return fmt.Errorf("ppg: got %d profiles for np=%d", len(profiles), np)
	}
	seen := make([]bool, np)
	for _, rp := range profiles {
		if rp.NP != np {
			return fmt.Errorf("ppg: profile for rank %d has np=%d, want %d", rp.Rank, rp.NP, np)
		}
		if rp.Rank < 0 || rp.Rank >= np {
			return fmt.Errorf("ppg: profile rank %d out of range", rp.Rank)
		}
		if seen[rp.Rank] {
			return fmt.Errorf("ppg: duplicate profile for rank %d", rp.Rank)
		}
		seen[rp.Rank] = true
	}
	return nil
}
