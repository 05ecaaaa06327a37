package mpisim

import (
	"fmt"

	"scalana/internal/machine"
)

// Point-to-point matching. Messages on one (src,dst,tag) channel match in
// program order on both sides (sequence numbers), so matching is a pure
// function of the programs, and completion times are computed purely from
// virtual clocks.
//
// Under run-to-block scheduling the matcher is a plain single-threaded
// data structure: only the rank being stepped touches it. A receive whose
// send has not been posted records a waiter on the channel and parks; the
// matching postSend later delivers the record straight into the parked
// rank's wake slot and marks it ready. No locks, waiter channels, or
// wall-clock timers are involved.
//
// Wildcard receives (mpi_recv_any) match the unconsumed send with the
// earliest virtual arrival among all channels targeting (dst,tag). Mixing
// wildcard and specific receives on the same channel is rejected, which
// keeps wildcard matching well-defined.

type sendInfo struct {
	from    int
	seq     int
	bytes   float64
	tArrive float64 // virtual arrival time at the receiver
	ctx     any     // sender's attribution context at the send
	matched bool
}

type channel struct {
	src, tag int
	sends    []*sendInfo
	// head is the first send a wildcard receive has yet to look at:
	// every send before it is matched, so wildcard matching starts here
	// instead of rescanning the channel's history.
	head        int
	recvClaims  int  // sequence numbers claimed by specific receives
	hasSpecific bool // a specific receive has used this channel
	// waiter is the rank parked until the send with sequence number
	// waiterSeq is posted (-1 when none). At most one rank can wait per
	// channel: only the destination rank receives on it, and a rank
	// blocks in one operation at a time.
	waiter    int
	waiterSeq int
}

type srcTag struct{ src, tag int }

// inboxEntry is one channel of an inbox, its (source, tag) pair beside
// the pointer so that a scan reads one contiguous run of memory.
type inboxEntry struct {
	srcTag
	ch *channel
}

// inbox is the channels that target one rank, in creation order. A rank
// hears from a few (source, tag) pairs, so finding a channel is a scan of
// list; a rank that hears from more than maxScanChans gets an index.
type inbox struct {
	list  []inboxEntry
	index map[srcTag]*channel
}

const (
	maxScanChans = 8
	// inboxCap is the list capacity each rank gets out of the matcher's
	// one slab; a longer list moves to the heap.
	inboxCap = 4
)

type matcher struct {
	w *World
	// inboxes holds every channel, by destination rank.
	inboxes []inbox
	// slab is the current sendInfo allocation chunk. Records live for the
	// whole run (channels keep them for matching), so the slab only grows;
	// chunks are never appended past capacity, keeping pointers stable.
	slab []sendInfo
	// chanSlab is the same for channels.
	chanSlab []channel
	// anyScanned counts the sends wildcard matching has examined.
	anyScanned int
}

const (
	sendSlabChunk = 256
	chanSlabChunk = 64
)

// newSendInfo carves one record out of the slab.
func (m *matcher) newSendInfo() *sendInfo {
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]sendInfo, 0, sendSlabChunk)
	}
	m.slab = append(m.slab, sendInfo{})
	return &m.slab[len(m.slab)-1]
}

func newMatcher(w *World) *matcher {
	m := &matcher{w: w, inboxes: make([]inbox, w.np)}
	lists := make([]inboxEntry, w.np*inboxCap)
	for r := range m.inboxes {
		m.inboxes[r].list = lists[r*inboxCap : r*inboxCap : (r+1)*inboxCap]
	}
	return m
}

// chanFor returns the channel src -> dst on tag, creating it on first use.
//
//scalana:hot
func (m *matcher) chanFor(src, dst, tag int) *channel {
	in := &m.inboxes[dst]
	if in.index != nil {
		if ch := in.index[srcTag{src, tag}]; ch != nil {
			return ch
		}
	} else {
		for i := range in.list {
			if e := &in.list[i]; e.src == src && e.tag == tag {
				return e.ch
			}
		}
	}
	return m.newChannel(in, src, tag)
}

func (m *matcher) newChannel(in *inbox, src, tag int) *channel {
	if len(m.chanSlab) == cap(m.chanSlab) {
		m.chanSlab = make([]channel, 0, chanSlabChunk)
	}
	m.chanSlab = append(m.chanSlab, channel{src: src, tag: tag, waiter: -1})
	ch := &m.chanSlab[len(m.chanSlab)-1]
	in.list = append(in.list, inboxEntry{srcTag{src, tag}, ch})
	switch {
	case in.index != nil:
		in.index[srcTag{src, tag}] = ch
	case len(in.list) > maxScanChans:
		in.index = make(map[srcTag]*channel, 2*len(in.list))
		for _, e := range in.list {
			in.index[e.srcTag] = e.ch
		}
	}
	return ch
}

// postSend registers a message from src to dst and readies a matching
// parked receiver, if any.
func (m *matcher) postSend(src, dst, tag int, bytes, tArrive float64, ctx any) {
	ch := m.chanFor(src, dst, tag)
	info := m.newSendInfo()
	*info = sendInfo{from: src, seq: len(ch.sends), bytes: bytes, tArrive: tArrive, ctx: ctx}
	ch.sends = append(ch.sends, info)
	if ch.waiter >= 0 && ch.waiterSeq == info.seq {
		r := ch.waiter
		ch.waiter = -1
		info.matched = true
		m.w.procs[r].wakeInfo = info
		m.w.sched.wake(r)
		return
	}
	// A rank parked in a wildcard receive says so in its block state.
	if b := &m.w.procs[dst].block; b.kind == blockRecvAny && b.tag == tag && !ch.hasSpecific {
		info.matched = true
		m.w.procs[dst].wakeInfo = info
		m.w.sched.wake(dst)
	}
}

// claimRecv obtains the matching send for the next specific receive
// posted by p on (src,tag); nil means the send has not been posted yet and
// the rank is now blocked on it.
func (m *matcher) claimRecv(p *Proc, src, tag int) *sendInfo {
	ch, seq := m.claim(src, p.Rank, tag)
	return m.take(p, ch, seq)
}

// claim reserves, for a specific receive, the next sequence number of the
// channel src -> dst on tag: receives match sends in program order.
func (m *matcher) claim(src, dst, tag int) (*channel, int) {
	ch := m.chanFor(src, dst, tag)
	ch.hasSpecific = true
	ch.recvClaims++
	return ch, ch.recvClaims - 1
}

// take consumes send number seq of a channel for a specific receive of
// its destination rank p. When the send is not posted yet it registers p
// as the channel's waiter and returns nil: postSend will wake p with the
// send in its wake slot.
func (m *matcher) take(p *Proc, ch *channel, seq int) *sendInfo {
	if seq < len(ch.sends) {
		info := ch.sends[seq]
		if info.matched {
			panic(fmt.Sprintf("mpisim: send %d->%d tag %d seq %d already consumed by a wildcard receive (mixed wildcard/specific matching is not supported)", ch.src, p.Rank, ch.tag, seq))
		}
		info.matched = true
		return info
	}
	ch.waiter = p.Rank
	ch.waiterSeq = seq
	m.w.sched.blockOn(p, blockState{kind: blockRecv, src: ch.src, tag: ch.tag, seq: seq})
	return nil
}

// claimRecvAny matches the next wildcard receive of p on tag: the
// unconsumed send with the earliest virtual arrival, or — when none is
// posted, which it reports as nil — the first send a peer posts to p on
// tag, delivered through the wake slot.
func (m *matcher) claimRecvAny(p *Proc, tag int) *sendInfo {
	var best *sendInfo
	for _, e := range m.inboxes[p.Rank].list {
		ch := e.ch
		if e.tag != tag || ch.hasSpecific {
			continue
		}
		// Sends are in order; only the first unmatched one can match.
		for ch.head < len(ch.sends) && ch.sends[ch.head].matched {
			ch.head++
			m.anyScanned++
		}
		if ch.head == len(ch.sends) {
			continue
		}
		m.anyScanned++
		s := ch.sends[ch.head]
		if best == nil || s.tArrive < best.tArrive || (s.tArrive == best.tArrive && s.from < best.from) {
			best = s
		}
	}
	if best != nil {
		best.matched = true
		return best
	}
	m.w.sched.blockOn(p, blockState{kind: blockRecvAny, tag: tag})
	return nil
}

// Request is a non-blocking communication handle.
type Request struct {
	id     int
	isSend bool
	src    int // AnySource for wildcard receives
	tag    int
	bytes  float64
	// ch and seq are the channel and the matching sequence number a
	// specific receive claimed at post time; wildcard receives resolve at
	// wait time.
	ch      *channel
	seq     int
	claimed *sendInfo
	postCtx any
}

// ID returns the request handle value exposed to the application.
func (r *Request) ID() int { return r.id }

func (p *Proc) validPeer(peer int) {
	if peer < 0 || peer >= p.world.np {
		panic(fmt.Sprintf("mpisim: rank %d: peer %d out of range [0,%d)", p.Rank, peer, p.world.np))
	}
}

// Send is an eager blocking send: the sender pays overhead plus injection
// cost and proceeds; the message arrives after the wire latency.
func (p *Proc) Send(dst, tag int, bytes float64) {
	p.validPeer(dst)
	t0 := p.Clock
	p.mpiOverhead()
	p.advance(bytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, tag, bytes, p.Clock+netLatency, p.Ctx)
	p.emit(&Event{Kind: EvSend, Op: "mpi_send", Peer: dst, Tag: tag, Bytes: bytes, TStart: t0, TEnd: p.Clock, DepRank: -1, Root: -1})
}

// Recv is a blocking receive from a specific source.
func (p *Proc) Recv(src, tag int, bytes float64) bool {
	p.validPeer(src)
	t0 := p.Clock
	p.mpiOverhead()
	info := p.world.matcher.claimRecv(p, src, tag)
	if info == nil {
		return p.park(cont{kind: contRecv, t0: t0, tag: tag})
	}
	p.finishRecv("mpi_recv", t0, tag, info)
	return true
}

// Parked is what RecvAny returns in place of a source rank when the rank
// parked; MatchedSource has the source once the rank is stepped again.
const Parked = -2

// RecvAny is a blocking wildcard-source receive; it returns the matched
// source rank (the MPI_Status.MPI_SOURCE of paper Fig. 5), or Parked.
func (p *Proc) RecvAny(tag int, bytes float64) int {
	t0 := p.Clock
	p.mpiOverhead()
	info := p.world.matcher.claimRecvAny(p, tag)
	if info == nil {
		if !p.park(cont{kind: contRecvAny, t0: t0, tag: tag}) {
			return Parked
		}
		return p.MatchedSource()
	}
	p.finishRecv("mpi_recv_any", t0, tag, info)
	return info.from
}

// MatchedSource is the source rank of the RecvAny the rank last parked in.
func (p *Proc) MatchedSource() int { return int(p.cont.from) }

// finishRecv is the complete half of Recv and RecvAny: wait out the
// matched message's arrival, copy it in, report the event.
//
//scalana:hot
func (p *Proc) finishRecv(op string, t0 float64, tag int, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	p.emit(&Event{Kind: EvRecv, Op: op, Peer: info.from, Tag: tag, Bytes: info.bytes,
		TStart: t0, TEnd: p.Clock, Wait: wait, DepRank: info.from, DepCtx: info.ctx, Root: -1})
}

// Isend posts a non-blocking send. Eager semantics: the payload is
// buffered immediately, so the returned request completes instantly.
func (p *Proc) Isend(dst, tag int, bytes float64) *Request {
	p.validPeer(dst)
	t0 := p.Clock
	p.mpiOverhead()
	p.advance(bytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, tag, bytes, p.Clock+netLatency, p.Ctx)
	req := p.newRequest(true, dst, tag, bytes)
	p.emit(&Event{Kind: EvIsend, Op: "mpi_isend", Peer: dst, Tag: tag, Bytes: bytes, TStart: t0, TEnd: p.Clock, DepRank: -1, Root: -1, ReqID: req.id})
	return req
}

// Irecv posts a non-blocking receive from a specific source. The matching
// sequence number is claimed at post time, preserving program order.
func (p *Proc) Irecv(src, tag int, bytes float64) *Request {
	p.validPeer(src)
	t0 := p.Clock
	p.mpiOverhead()
	req := p.newRequest(false, src, tag, bytes)
	req.ch, req.seq = p.world.matcher.claim(src, p.Rank, tag)
	p.emit(&Event{Kind: EvIrecv, Op: "mpi_irecv", Peer: src, Tag: tag, Bytes: bytes, TStart: t0, TEnd: p.Clock, DepRank: -1, Root: -1, ReqID: req.id})
	return req
}

// IrecvAny posts a non-blocking wildcard receive; the source is uncertain
// until completion (paper Fig. 5's status-based resolution).
func (p *Proc) IrecvAny(tag int, bytes float64) *Request {
	t0 := p.Clock
	p.mpiOverhead()
	req := p.newRequest(false, AnySource, tag, bytes)
	p.emit(&Event{Kind: EvIrecv, Op: "mpi_irecv_any", Peer: AnySource, Tag: tag, Bytes: bytes, TStart: t0, TEnd: p.Clock, DepRank: -1, Root: -1, ReqID: req.id})
	return req
}

func (p *Proc) newRequest(isSend bool, src, tag int, bytes float64) *Request {
	var r *Request
	if n := len(p.freeReqs); n > 0 {
		r = p.freeReqs[n-1]
		p.freeReqs = p.freeReqs[:n-1]
		*r = Request{}
	} else {
		r = &Request{}
	}
	r.isSend, r.src, r.tag, r.bytes, r.postCtx = isSend, src, tag, bytes, p.Ctx
	p.nextReq++
	r.id = p.nextReq
	p.reqs = append(p.reqs, r)
	return r
}

// FindRequest resolves an application-level request handle. Outstanding
// requests are few, so a linear scan beats a map here.
func (p *Proc) FindRequest(id int) *Request {
	for _, r := range p.reqs {
		if r.id == id {
			return r
		}
	}
	return nil
}

// resolve obtains the matched sendInfo for a receive request; nil means
// the matching send has not been posted yet and the rank is now blocked on
// it (resume stores the send its waker delivers in r.claimed).
func (p *Proc) resolve(r *Request) *sendInfo {
	if r.claimed != nil {
		return r.claimed
	}
	if r.isSend {
		return nil
	}
	if r.src == AnySource {
		r.claimed = p.world.matcher.claimRecvAny(p, r.tag)
		return r.claimed
	}
	r.claimed = p.world.matcher.take(p, r.ch, r.seq)
	return r.claimed
}

// dropRequest removes a completed request from the outstanding list and
// recycles the handle.
func (p *Proc) dropRequest(id int) {
	for i, r := range p.reqs {
		if r.id == id {
			p.reqs = append(p.reqs[:i], p.reqs[i+1:]...)
			p.freeReqs = append(p.freeReqs, r)
			return
		}
	}
}

// Wait completes one outstanding request (paper Fig. 5: the communication
// dependence of a non-blocking receive is recorded here, where source and
// tag become certain).
func (p *Proc) Wait(id int) bool {
	r := p.FindRequest(id)
	if r == nil {
		panic(fmt.Sprintf("mpisim: rank %d: mpi_wait on unknown request %d", p.Rank, id))
	}
	t0 := p.Clock
	p.mpiOverhead()
	if r.isSend {
		p.dropRequest(id)
		p.emit(&Event{Kind: EvWait, Op: "mpi_wait", Peer: r.src, Tag: r.tag, Bytes: r.bytes,
			TStart: t0, TEnd: p.Clock, DepRank: -1, Root: -1, Requests: 1, ReqID: id})
		return true
	}
	info := p.resolve(r)
	if info == nil {
		return p.park(cont{kind: contWait, t0: t0, idx: id})
	}
	p.finishWait(t0, r, info)
	return true
}

// finishWait is the complete half of a Wait on a receive request.
//
//scalana:hot
func (p *Proc) finishWait(t0 float64, r *Request, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	id, tag := r.id, r.tag
	p.dropRequest(id)
	p.emit(&Event{Kind: EvWait, Op: "mpi_wait", Peer: info.from, Tag: tag, Bytes: info.bytes,
		TStart: t0, TEnd: p.Clock, Wait: wait, DepRank: info.from, DepCtx: info.ctx, Root: -1, Requests: 1, ReqID: id})
}

// Waitall completes every outstanding request of the rank. The dependence
// recorded is the request whose message arrived last — the rank that kept
// this rank waiting.
func (p *Proc) Waitall() bool {
	p.cont = cont{t0: p.Clock}
	p.mpiOverhead()
	return p.waitallFrom() || p.parked()
}

// waitallFrom is Waitall from request number cont.idx on, its accumulators
// in the continuation record so that it can park at any receive whose send
// is not posted yet and be re-entered there: false means it parked.
// Completing everything lets the loop walk the outstanding list in order
// and release it wholesale afterwards instead of splicing per request.
//
//scalana:hot
func (p *Proc) waitallFrom() bool {
	c := &p.cont
	for ; c.idx < len(p.reqs); c.idx++ {
		r := p.reqs[c.idx]
		if !r.isSend {
			info := p.resolve(r)
			if info == nil {
				c.kind = contWaitall
				return false
			}
			c.nRecv++
			c.bytes += info.bytes
			if c.last == nil || info.tArrive > c.last.tArrive {
				c.last = info
			}
		}
		p.freeReqs = append(p.freeReqs, r)
	}
	n := len(p.reqs)
	p.reqs = p.reqs[:0]
	var wait float64
	depRank, depCtx := -1, any(nil)
	if c.last != nil {
		wait = p.waitUntil(c.last.tArrive)
		depRank, depCtx = c.last.from, c.last.ctx
	}
	if c.bytes > 0 {
		p.advance(c.bytes*netPerByte, AdvTransfer, &zeroVec)
	}
	p.emit(&Event{Kind: EvWaitall, Op: "mpi_waitall", Peer: depRank, Tag: 0, Bytes: c.bytes,
		TStart: c.t0, TEnd: p.Clock, Wait: wait, DepRank: depRank, DepCtx: depCtx, Root: -1,
		Requests: n, RecvRequests: int(c.nRecv)})
	return true
}

// Sendrecv performs a combined exchange: both transfers proceed
// concurrently and the call completes when the incoming message arrives.
func (p *Proc) Sendrecv(dst, stag int, sbytes float64, src, rtag int, rbytes float64) bool {
	p.validPeer(dst)
	p.validPeer(src)
	t0 := p.Clock
	p.mpiOverhead()
	p.advance(sbytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, stag, sbytes, p.Clock+netLatency, p.Ctx)
	info := p.world.matcher.claimRecv(p, src, rtag)
	if info == nil {
		return p.park(cont{kind: contSendrecv, t0: t0, tag: rtag, dst: int32(dst), bytes: sbytes})
	}
	p.finishSendrecv(t0, rtag, dst, sbytes, info)
	return true
}

// finishSendrecv is the complete half of Sendrecv.
//
//scalana:hot
func (p *Proc) finishSendrecv(t0 float64, rtag, dst int, sbytes float64, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	p.emit(&Event{Kind: EvSendrecv, Op: "mpi_sendrecv", Peer: info.from, Tag: rtag, Bytes: sbytes + info.bytes,
		TStart: t0, TEnd: p.Clock, Wait: wait, DepRank: info.from, DepCtx: info.ctx, Root: -1,
		SendPeer: dst, SendBytes: sbytes})
}

// Outstanding reports the number of pending requests (testing aid).
func (p *Proc) Outstanding() int { return len(p.reqs) }

// zeroVec is the counter delta of every advance but compute and glue.
var zeroVec machine.Vec
