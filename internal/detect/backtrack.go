package detect

import (
	"math"
	"sort"

	"scalana/internal/ppg"
	"scalana/internal/psg"
)

// Backtracking root cause detection (paper Algorithm 1). Starting from
// each problematic vertex, the walk moves backwards:
//
//   - at an MPI vertex whose operations waited on a remote rank, it
//     follows the dominant inter-process dependence edge to that rank
//     (edges without wait states are pruned);
//   - at a Loop or Branch vertex not yet scanned, it follows the control
//     dependence edge into the structure (its last child);
//   - otherwise it follows the data dependence edge: the previous vertex
//     in execution order, or the parent when at the head of a block.
//
// The walk stops at the Root vertex, or when a collective vertex is
// reached through local (control/data) edges — the previous global
// synchronization bounds where the delay can have originated. Collectives
// reached through a communication edge (the straggler's side of the same
// collective) are walked through, which is what lets the Zeus-MP path of
// paper Fig. 12 continue from the slow Allreduce into the straggler's
// preceding Waitalls.

type backtracker struct {
	pg *ppg.Graph
	// budget bounds each walk's steps (maxSteps).
	budget int
	// scanned is dense per-VID state: the graph is immutable during
	// detection, so the symbol table bounds every vertex a walk can see.
	scanned []bool
}

func backtrackAll(rep *Report, largest ScaleRun) {
	bt := &backtracker{pg: largest.PPG, budget: maxSteps, scanned: make([]bool, largest.PPG.PSG.NumVIDs())}
	for _, ns := range rep.NonScalable {
		rank := argmaxRank(largest.PPG, ns.Vertex.VID)
		if p := bt.walk(ns.Vertex, rank); len(p.Steps) > 0 {
			rep.Paths = append(rep.Paths, p)
		}
	}
	// Abnormal vertices not covered by any previous path get their own
	// walks (Algorithm 1, lines 9-12).
	for _, ab := range rep.Abnormal {
		if bt.scanned[ab.Vertex.VID] {
			continue
		}
		rank := argmaxRank(largest.PPG, ab.Vertex.VID)
		if p := bt.walk(ab.Vertex, rank); len(p.Steps) > 0 {
			rep.Paths = append(rep.Paths, p)
		}
	}
}

// argmaxRank picks the rank most affected by the vertex: the one with the
// largest sampled time.
func argmaxRank(pg *ppg.Graph, vid psg.VID) int {
	vals := pg.TimeSeries(vid)
	best, bestV := 0, math.Inf(-1)
	for r, v := range vals {
		if v > bestV {
			best, bestV = r, v
		}
	}
	return best
}

type pv struct {
	vid  psg.VID
	rank int
}

func (bt *backtracker) walk(start *psg.Vertex, rank int) Path {
	var path Path
	visited := map[pv]bool{}
	v, r := start, rank
	via := ViaStart
	var wait float64

	for steps := 0; steps < bt.budget; steps++ {
		if v == nil || v.IsRoot() {
			break
		}
		// Collectives reached through local edges terminate the walk; the
		// starting vertex and communication-edge targets are walked through.
		if v.Collective && (via == ViaControl || via == ViaData) {
			break
		}
		id := pv{v.VID, r}
		if visited[id] {
			break
		}
		visited[id] = true

		firstVisit := !bt.scanned[v.VID]
		bt.scanned[v.VID] = true
		path.Steps = append(path.Steps, PathStep{VertexKey: v.Key, Vertex: v, Rank: r, Via: via, Wait: wait})
		wait = 0

		// Candidate edges in priority order; the first one leading to an
		// unvisited vertex wins, so a dead end on one dependence kind
		// falls back to the next instead of truncating the path.

		// 1. MPI vertices: follow the inter-process dependence edge.
		if v.Kind == psg.KindMPI {
			if e := bt.pg.BestEdge(v.VID, r, waitEps); e != nil {
				if peer := bt.pg.PSG.VertexByVID(e.PeerVID); peer != nil && !visited[pv{peer.VID, e.PeerRank}] {
					v, r, via, wait = peer, e.PeerRank, ViaComm, e.TotalWait
					continue
				}
			}
			// Pruned or unmatched: fall through to the data dependence edge.
		}

		// 2. Unscanned Loop/Branch vertices: control dependence edge into
		// the structure ("the traversal continues from the end vertex of
		// this loop").
		if (v.Kind == psg.KindLoop || v.Kind == psg.KindBranch) && firstVisit {
			if last := v.LastChild(); last != nil && !visited[pv{last.VID, r}] {
				v, via = last, ViaControl
				continue
			}
		}

		// 3. Data dependence edge: previous vertex in execution order.
		if prev := v.PrevSibling(); prev != nil {
			v, via = prev, ViaData
		} else {
			v, via = v.Parent, ViaData
		}
	}
	return path
}

// rankCauses scores the Comp/Loop vertices on each path and aggregates
// them into the report's ranked cause list ("the root causes can be
// further sorted according to the length of execution time and the
// imbalance among different parallel processes", paper §V). With
// Config.CommCauses, MPI vertices flagged non-scalable also qualify.
func rankCauses(rep *Report, largest ScaleRun, cfg Config) {
	total := largest.PPG.TotalTime()
	if total <= 0 {
		return
	}
	abn := map[psg.VID]float64{}
	for _, ab := range rep.Abnormal {
		abn[ab.Vertex.VID] = score(ab.Ratio)
	}
	nonScalable := map[psg.VID]bool{}
	if cfg.CommCauses {
		for _, ns := range rep.NonScalable {
			nonScalable[ns.Vertex.VID] = true
		}
	}
	agg := map[psg.VID]*Cause{}
	for i := range rep.Paths {
		p := &rep.Paths[i]
		var best *Cause
		for _, st := range p.Steps {
			candidate := st.Vertex.Kind == psg.KindComp || st.Vertex.Kind == psg.KindLoop ||
				(cfg.CommCauses && st.Vertex.Collective && nonScalable[st.Vertex.VID])
			if !candidate {
				continue
			}
			var share float64
			if st.Vertex.Kind == psg.KindMPI {
				// A collective is only as culpable as its intrinsic cost:
				// time spent waiting for stragglers is inherited — the walk
				// already followed those dependence edges — so it must not
				// also score here.
				share = intrinsicShare(largest.PPG, st.Vertex.VID, total)
			} else {
				share = sum(largest.PPG.TimeSeries(st.Vertex.VID)) / total
			}
			imb := abn[st.Vertex.VID]
			if imb == 0 {
				imb = 1
			}
			c := &Cause{VertexKey: st.VertexKey, Vertex: st.Vertex, Share: share, Imbalance: imb, Score: share * imb}
			if best == nil || c.Score > best.Score {
				best = c
			}
		}
		if best == nil && len(p.Steps) > 0 {
			last := p.Steps[len(p.Steps)-1]
			share := sum(largest.PPG.TimeSeries(last.Vertex.VID)) / total
			best = &Cause{VertexKey: last.VertexKey, Vertex: last.Vertex, Share: share, Imbalance: 1, Score: share}
		}
		if best == nil {
			continue
		}
		p.Cause = best
		if prev, ok := agg[best.Vertex.VID]; ok {
			prev.Paths++
			if best.Score > prev.Score {
				prev.Score = best.Score
			}
		} else {
			cp := *best
			cp.Paths = 1
			agg[best.Vertex.VID] = &cp
		}
	}
	vids := make([]psg.VID, 0, len(agg))
	for vid := range agg {
		vids = append(vids, vid)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, vid := range vids {
		rep.Causes = append(rep.Causes, *agg[vid])
	}
	sort.Slice(rep.Causes, func(i, j int) bool {
		if rep.Causes[i].Score != rep.Causes[j].Score {
			return rep.Causes[i].Score > rep.Causes[j].Score
		}
		return rep.Causes[i].VertexKey < rep.Causes[j].VertexKey
	})
}

// intrinsicShare is a vertex's time share minus the part explained by
// its outgoing dependence edges (time blocked on other ranks).
func intrinsicShare(pg *ppg.Graph, vid psg.VID, total float64) float64 {
	t := 0.0
	for _, v := range pg.TimeSeries(vid) {
		t += v
	}
	for r := 0; r < pg.NP; r++ {
		for _, e := range pg.Edges[ppg.EdgeFrom{VID: vid, Rank: r}] {
			t -= e.TotalWait
		}
	}
	if t < 0 {
		t = 0
	}
	return t / total
}
