// Package commmatrix implements a lightweight communication-volume
// collector: per-rank send/recv byte and message counts keyed by
// interned PSG vertex (psg.VID), plus the dense rank-to-rank traffic
// matrix. It is the kind of tool the ScalAna paper's evaluation invites
// as a further baseline — far cheaper than tracing (no timestamped
// records, only counters) while still exposing the communication
// structure that scalability-fault studies (Zhu et al.) start from.
//
// A run attaches it as the "commmatrix" tool (the root package's
// tools_builtin.go). Like the other collectors, this package imports
// nothing of the root package.
package commmatrix

import (
	"fmt"
	"sort"

	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// recordCost is the virtual CPU cost of updating the counters for one
// MPI operation: below the ScalAna profiler's CommRecordCost, since the
// collector touches two counters and a matrix cell, with no parameter
// compression to run.
const recordCost = 0.1e-6

// MaxNP is the largest scale a matrix is collected for on request: the
// paper's largest job scale. Every rank keeps two np-long rows and the
// matrix is two dense np×np blocks, 2·16·2048² B = 128 MiB at the cap.
const MaxNP = 2048

// VertexComm aggregates the traffic one PSG vertex issued on one rank.
//
// Direction accounting: sends are counted when the operation posts
// (mpi_send, mpi_isend, the send half of a sendrecv); receives when the
// payload lands (mpi_recv, a wait completing a receive, waitall's
// aggregated receives, the receive half of a sendrecv). Collectives
// count separately: their payload is per-peer, not point-to-point.
type VertexComm struct {
	SendMsgs  int64
	RecvMsgs  int64
	CollMsgs  int64
	SendBytes float64
	RecvBytes float64
	CollBytes float64
	// Wait is the summed blocked time inside the vertex's operations.
	Wait float64
}

// RankComm is one rank's communication-volume profile.
type RankComm struct {
	Rank int
	NP   int
	// ByVertex aggregates traffic per interned PSG vertex.
	ByVertex map[psg.VID]*VertexComm
	// PeerBytes and PeerMsgs are this rank's row of the traffic matrix:
	// point-to-point payload exchanged with each peer, counted at the
	// local operation (sends at post, receives at completion).
	PeerBytes []float64
	PeerMsgs  []int64
}

// StorageBytes is the rank's on-disk size: a header, one counter record
// per touched vertex, and one cell per peer actually communicated with.
func (rc *RankComm) StorageBytes() int64 {
	const (
		header      = 64
		vertexEntry = 4 + 6*8 + 8 // vid + six counters + wait
		peerCell    = 4 + 8 + 8   // peer + bytes + msgs
	)
	var cells int64
	for p := range rc.PeerBytes {
		if rc.PeerBytes[p] != 0 || rc.PeerMsgs[p] != 0 {
			cells++
		}
	}
	return header + int64(len(rc.ByVertex))*vertexEntry + cells*peerCell
}

// Collector is the per-rank hook. It implements mpisim.Hook alone: it sees
// MPI events and takes no timer samples, which is exactly why its runtime
// overhead sits below the sampling profilers.
type Collector struct {
	comm *RankComm
}

// New creates the collector for one rank.
func New(rank, np int) *Collector {
	return &Collector{
		comm: &RankComm{
			Rank:      rank,
			NP:        np,
			ByVertex:  map[psg.VID]*VertexComm{},
			PeerBytes: make([]float64, np),
			PeerMsgs:  make([]int64, np),
		},
	}
}

// Comm returns the collected rank profile.
func (c *Collector) Comm() *RankComm { return c.comm }

func ctxVID(ctx any) psg.VID {
	if v, ok := ctx.(*psg.Vertex); ok && v != nil {
		return v.VID
	}
	return psg.VIDRoot
}

func (c *Collector) vertex(ctx any) *VertexComm {
	vid := ctxVID(ctx)
	vc := c.comm.ByVertex[vid]
	if vc == nil {
		vc = &VertexComm{}
		c.comm.ByVertex[vid] = vc
	}
	return vc
}

// MPIEvent updates the per-vertex counters and the peer matrix row.
// Bytes are counted exactly once per payload: sends at post time
// (mpi_send/mpi_isend), receives at completion (mpi_recv, a wait
// completing a receive, waitall). Posted irecvs and waits on send
// requests contribute nothing — their payload is counted elsewhere.
func (c *Collector) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	vc := c.vertex(ev.Ctx)
	vc.Wait += ev.Wait
	switch ev.Kind {
	case mpisim.EvSend, mpisim.EvIsend:
		vc.SendMsgs++
		vc.SendBytes += ev.Bytes
		c.peer(ev.Peer, ev.Bytes)
	case mpisim.EvRecv:
		vc.RecvMsgs++
		vc.RecvBytes += ev.Bytes
		c.peer(ev.Peer, ev.Bytes)
	case mpisim.EvWait:
		// A wait on a send request (DepRank < 0) completed a payload
		// already counted at the isend.
		if ev.DepRank < 0 {
			return 0
		}
		vc.RecvMsgs++
		vc.RecvBytes += ev.Bytes
		c.peer(ev.Peer, ev.Bytes)
	case mpisim.EvWaitall:
		// Bytes aggregates exactly the completed receives (sends were
		// counted at their isend); the event names only the last-arriving
		// peer, so the matrix row is not updated.
		vc.RecvMsgs += int64(ev.RecvRequests)
		vc.RecvBytes += ev.Bytes
	case mpisim.EvSendrecv:
		// The event splits the combined exchange: SendPeer/SendBytes are
		// the posted send, the remainder is the matched receive.
		vc.SendMsgs++
		vc.RecvMsgs++
		vc.SendBytes += ev.SendBytes
		vc.RecvBytes += ev.Bytes - ev.SendBytes
		c.peer(ev.SendPeer, ev.SendBytes)
		c.peer(ev.Peer, ev.Bytes-ev.SendBytes)
	case mpisim.EvCollective:
		vc.CollMsgs++
		vc.CollBytes += ev.Bytes
	case mpisim.EvIrecv:
		// Posted only; the payload is counted when the wait completes.
		return 0
	}
	return recordCost
}

func (c *Collector) peer(peer int, bytes float64) {
	if peer < 0 || peer >= c.comm.NP {
		return
	}
	c.comm.PeerBytes[peer] += bytes
	c.comm.PeerMsgs[peer]++
}

var _ mpisim.Hook = (*Collector)(nil)

// Matrix is the job-wide result: every rank's profile plus the dense
// np×np traffic matrix assembled from the per-rank rows.
type Matrix struct {
	NP    int
	Ranks []*RankComm
	// Bytes[src*NP+dst] is the point-to-point payload rank src observed
	// exchanging with rank dst (sends at post, receives at completion).
	Bytes []float64
	// Msgs[src*NP+dst] is the matching operation count.
	Msgs []int64
}

// Assemble builds the dense matrix from per-rank profiles.
func Assemble(ranks []*RankComm) (*Matrix, error) {
	np := len(ranks)
	m := &Matrix{NP: np, Ranks: ranks, Bytes: make([]float64, np*np), Msgs: make([]int64, np*np)}
	for _, rc := range ranks {
		if rc == nil || rc.NP != np {
			return nil, fmt.Errorf("commmatrix: inconsistent rank profiles (np=%d)", np)
		}
		copy(m.Bytes[rc.Rank*np:(rc.Rank+1)*np], rc.PeerBytes)
		copy(m.Msgs[rc.Rank*np:(rc.Rank+1)*np], rc.PeerMsgs)
	}
	return m, nil
}

// At returns the (src, dst) cell of the byte matrix.
func (m *Matrix) At(src, dst int) float64 { return m.Bytes[src*m.NP+dst] }

// TotalBytes sums the matrix.
func (m *Matrix) TotalBytes() float64 {
	var t float64
	for _, b := range m.Bytes {
		t += b
	}
	return t
}

// Flow is one rank pair's traffic, for top-talker reports.
type Flow struct {
	Src, Dst int
	Bytes    float64
	Msgs     int64
}

// TopFlows returns the n heaviest rank pairs in deterministic order
// (bytes descending, then src, then dst).
func (m *Matrix) TopFlows(n int) []Flow {
	flows := make([]Flow, 0, m.NP)
	for s := 0; s < m.NP; s++ {
		for d := 0; d < m.NP; d++ {
			if b := m.At(s, d); b > 0 {
				flows = append(flows, Flow{Src: s, Dst: d, Bytes: b, Msgs: m.Msgs[s*m.NP+d]})
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Bytes != flows[j].Bytes {
			return flows[i].Bytes > flows[j].Bytes
		}
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	if len(flows) > n {
		flows = flows[:n]
	}
	return flows
}
