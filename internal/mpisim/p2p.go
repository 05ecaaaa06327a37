package mpisim

import (
	"fmt"
	"math"

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
	bytes   float64
	tArrive float64 // virtual arrival time at the receiver
	ctx     Ctx     // sender's attribution context at the send
	// matched marks a queued send a receive has consumed. A receive gets
	// its send by value, and there matched says the copy is filled in.
	matched bool
}

type channel struct {
	src, tag int
	// queue holds the channel's in-flight sends by value: queue[i] is send
	// number base+i, and queue[:head] is the consumed prefix. A Wait may
	// complete a later request of a channel first, so a send is marked
	// consumed where it sits and head moves past the prefix as soon as it
	// forms; push reclaims the prefix's room. The queue's capacity follows
	// how many sends are in flight, not how many were ever posted.
	queue       []sendInfo
	base, head  int
	recvClaims  int  // sequence numbers claimed by specific receives
	hasSpecific bool // a specific receive has used this channel
	// waiter is the rank parked until the send with sequence number
	// waiterSeq is posted (-1 when none). At most one rank can wait per
	// channel: only the destination rank receives on it, and a rank
	// blocks in one operation at a time.
	waiter    int
	waiterSeq int
}

// push queues a newly posted send. A full queue whose consumed prefix is
// a quarter of it slides its live sends down instead of growing.
func (ch *channel) push(s sendInfo) {
	if n := len(ch.queue); n == cap(ch.queue) && 4*ch.head >= n {
		ch.base += ch.head
		ch.queue = ch.queue[:copy(ch.queue, ch.queue[ch.head:])]
		ch.head = 0
	}
	ch.queue = append(ch.queue, s)
}

// consume marks send number seq consumed, drops the consumed prefix, and
// returns the send.
func (ch *channel) consume(seq int) sendInfo {
	s := &ch.queue[seq-ch.base]
	s.matched = true
	info := *s
	for ch.head < len(ch.queue) && ch.queue[ch.head].matched {
		ch.head++
	}
	if ch.head == len(ch.queue) {
		ch.base += ch.head
		ch.queue, ch.head = ch.queue[:0], 0
	}
	return info
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
	// queueCap is the queue capacity a channel gets out of the matcher's
	// slab, and reqsCap the capacity of a rank's outstanding and free
	// request lists out of the world's; a longer one moves to the heap.
	queueCap = 2
	reqsCap  = 4
)

type matcher struct {
	w *World
	// inboxes holds every channel, by destination rank.
	inboxes []inbox
	// chanSlab, queueSlab and reqSlab are the current allocation chunks of
	// channels, their first queues and request handles (see carve).
	chanSlab  []channel
	queueSlab [][queueCap]sendInfo
	reqSlab   []Request
	// anyScanned counts the sends wildcard matching has examined.
	anyScanned int
}

// slabChunk is the most slots a chunk of a slab opens with after the
// world's first.
const slabChunk = 64

// carve takes one zero T out of the current chunk of a slab, starting a
// new chunk when it is full. A world's first chunk has np slots — a small
// world uses a few dozen channels, not hundreds — and each later one
// twice the previous one's, up to slabChunk. A chunk never grows past its
// capacity, so the pointers carve hands out stay valid for the life of
// the world.
func carve[T any](slab *[]T, np int) *T {
	if n := cap(*slab); len(*slab) == n {
		size := np
		if n > 0 {
			size = min(2*n, slabChunk)
		}
		*slab = make([]T, 0, size)
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
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
	ch := carve(&m.chanSlab, m.w.np)
	*ch = channel{src: src, tag: tag, waiter: -1, queue: carve(&m.queueSlab, m.w.np)[:0]}
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

// postSend registers a message from src to dst and hands it to a
// matching parked receiver, if any.
func (m *matcher) postSend(src, dst, tag int, bytes, tArrive float64, ctx Ctx) {
	ch := m.chanFor(src, dst, tag)
	seq := ch.base + len(ch.queue)
	ch.push(sendInfo{from: src, bytes: bytes, tArrive: tArrive, ctx: ctx})
	r := ch.waiter
	if r >= 0 && ch.waiterSeq == seq {
		ch.waiter = -1
	} else if b := &m.w.procs[dst].block; b.kind == blockRecvAny && b.tag == tag && !ch.hasSpecific {
		// A rank parked in a wildcard receive says so in its block state.
		r = dst
	} else {
		return
	}
	m.w.procs[r].wakeInfo = ch.consume(seq)
	m.w.sched.wake(r)
}

// claimRecv obtains the matching send for the next specific receive
// posted by p on (src,tag); an unmatched result means the send has not
// been posted yet and the rank is now blocked on it.
func (m *matcher) claimRecv(p *Proc, src, tag int) sendInfo {
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
// as the channel's waiter and returns an unmatched sendInfo: postSend
// will wake p with the send in its wake slot.
func (m *matcher) take(p *Proc, ch *channel, seq int) sendInfo {
	switch i := seq - ch.base; {
	case i < ch.head:
		panic(fmt.Sprintf("mpisim: send %d->%d tag %d seq %d already consumed by a wildcard receive (mixed wildcard/specific matching is not supported)", ch.src, p.Rank, ch.tag, seq))
	case i < len(ch.queue):
		return ch.consume(seq)
	}
	ch.waiter = p.Rank
	ch.waiterSeq = seq
	m.w.sched.blockOn(p, blockState{kind: blockRecv, src: ch.src, tag: ch.tag, seq: seq})
	return sendInfo{}
}

// claimRecvAny matches the next wildcard receive of p on tag: the
// unconsumed send with the earliest virtual arrival, or — when none is
// posted, which it reports as an unmatched sendInfo — the first send a
// peer posts to p on tag, delivered through the wake slot.
func (m *matcher) claimRecvAny(p *Proc, tag int) sendInfo {
	var best *channel
	for _, e := range m.inboxes[p.Rank].list {
		ch := e.ch
		// Only a channel's first unconsumed send can match.
		if e.tag != tag || ch.hasSpecific || ch.head == len(ch.queue) {
			continue
		}
		m.anyScanned++
		if best == nil {
			best = ch
			continue
		}
		s, b := &ch.queue[ch.head], &best.queue[best.head]
		if s.tArrive < b.tArrive || (s.tArrive == b.tArrive && s.from < b.from) {
			best = ch
		}
	}
	if best != nil {
		return best.consume(best.base + best.head)
	}
	m.w.sched.blockOn(p, blockState{kind: blockRecvAny, tag: tag})
	return sendInfo{}
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
	// wait time. claimed is the matched send once the receive resolved.
	ch      *channel
	seq     int
	claimed sendInfo
}

// ID returns the request handle value exposed to the application.
func (r *Request) ID() int { return r.id }

func (p *Proc) validPeer(peer int) {
	if peer < 0 || peer >= p.world.np {
		panic(fmt.Sprintf("mpisim: rank %d: peer %d out of range [0,%d)", p.Rank, peer, p.world.np))
	}
}

// validBytes fails the rank on a byte count that is negative, NaN or
// infinite, naming the operation.
func (p *Proc) validBytes(op Op, bytes float64) {
	if !(bytes >= 0 && bytes <= math.MaxFloat64) {
		panic(fmt.Sprintf("mpisim: rank %d: %s of %g bytes: a byte count must be finite and non-negative", p.Rank, op, bytes))
	}
}

// Send is an eager blocking send: the sender pays overhead plus injection
// cost and proceeds; the message arrives after the wire latency.
func (p *Proc) Send(dst, tag int, bytes float64) {
	p.validPeer(dst)
	p.validBytes(OpSend, bytes)
	p.mpiOverhead()
	p.advance(bytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, tag, bytes, p.Clock+netLatency, p.Ctx)
	p.emit(p.event(OpSend, dst, tag, bytes, 0, -1, NoCtx))
}

// Recv is a blocking receive from a specific source.
func (p *Proc) Recv(src, tag int, bytes float64) bool {
	p.validPeer(src)
	p.validBytes(OpRecv, bytes)
	p.mpiOverhead()
	info := p.world.matcher.claimRecv(p, src, tag)
	if !info.matched {
		return p.park(cont{kind: contRecv, tag: tag})
	}
	p.finishRecv(OpRecv, tag, &info)
	return true
}

// Parked is what RecvAny returns in place of a source rank when the rank
// parked; MatchedSource has the source once the rank is stepped again.
const Parked = -2

// RecvAny is a blocking wildcard-source receive; it returns the matched
// source rank (the MPI_Status.MPI_SOURCE of paper Fig. 5), or Parked.
func (p *Proc) RecvAny(tag int, bytes float64) int {
	p.validBytes(OpRecvAny, bytes)
	p.mpiOverhead()
	info := p.world.matcher.claimRecvAny(p, tag)
	if !info.matched {
		if !p.park(cont{kind: contRecvAny, tag: tag}) {
			return Parked
		}
		return p.MatchedSource()
	}
	p.finishRecv(OpRecvAny, tag, &info)
	return info.from
}

// MatchedSource is the source rank of the RecvAny the rank last parked in.
func (p *Proc) MatchedSource() int { return int(p.cont.from) }

// finishRecv is the complete half of Recv and RecvAny: wait out the
// matched message's arrival, copy it in, report the event.
//
//scalana:hot
func (p *Proc) finishRecv(op Op, tag int, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	p.emit(p.event(op, info.from, tag, info.bytes, wait, info.from, info.ctx))
}

// Isend posts a non-blocking send. Eager semantics: the payload is
// buffered immediately, so the returned request completes instantly.
func (p *Proc) Isend(dst, tag int, bytes float64) *Request {
	p.validPeer(dst)
	p.validBytes(OpIsend, bytes)
	p.mpiOverhead()
	p.advance(bytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, tag, bytes, p.Clock+netLatency, p.Ctx)
	req := p.newRequest(true, dst, tag, bytes)
	ev := p.event(OpIsend, dst, tag, bytes, 0, -1, NoCtx)
	ev.ReqID = req.id
	p.emit(ev)
	return req
}

// Irecv posts a non-blocking receive from a specific source. The matching
// sequence number is claimed at post time, preserving program order.
func (p *Proc) Irecv(src, tag int, bytes float64) *Request {
	p.validPeer(src)
	p.validBytes(OpIrecv, bytes)
	p.mpiOverhead()
	req := p.newRequest(false, src, tag, bytes)
	req.ch, req.seq = p.world.matcher.claim(src, p.Rank, tag)
	ev := p.event(OpIrecv, src, tag, bytes, 0, -1, NoCtx)
	ev.ReqID = req.id
	p.emit(ev)
	return req
}

// IrecvAny posts a non-blocking wildcard receive; the source is uncertain
// until completion (paper Fig. 5's status-based resolution).
func (p *Proc) IrecvAny(tag int, bytes float64) *Request {
	p.validBytes(OpIrecvAny, bytes)
	p.mpiOverhead()
	req := p.newRequest(false, AnySource, tag, bytes)
	ev := p.event(OpIrecvAny, AnySource, tag, bytes, 0, -1, NoCtx)
	ev.ReqID = req.id
	p.emit(ev)
	return req
}

func (p *Proc) newRequest(isSend bool, src, tag int, bytes float64) *Request {
	var r *Request
	if n := len(p.freeReqs); n > 0 {
		r = p.freeReqs[n-1]
		p.freeReqs = p.freeReqs[:n-1]
		*r = Request{}
	} else {
		r = carve(&p.world.matcher.reqSlab, p.world.np)
	}
	r.isSend, r.src, r.tag, r.bytes = isSend, src, tag, bytes
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

// resolve fills in r.claimed, the matched send of a receive request, and
// reports whether it could: false means the matching send has not been
// posted yet and the rank is now blocked on it (resume stores the send its
// waker delivers in r.claimed).
func (p *Proc) resolve(r *Request) bool {
	if !r.claimed.matched {
		if r.src == AnySource {
			r.claimed = p.world.matcher.claimRecvAny(p, r.tag)
		} else {
			r.claimed = p.world.matcher.take(p, r.ch, r.seq)
		}
	}
	return r.claimed.matched
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
	p.mpiOverhead()
	if r.isSend {
		p.dropRequest(id)
		ev := p.event(OpWait, r.src, r.tag, r.bytes, 0, -1, NoCtx)
		ev.ReqID = id
		p.emit(ev)
		return true
	}
	if !p.resolve(r) {
		return p.park(cont{kind: contWait, idx: id})
	}
	p.finishWait(r, &r.claimed)
	return true
}

// finishWait is the complete half of a Wait on a receive request.
//
//scalana:hot
func (p *Proc) finishWait(r *Request, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	id, tag := r.id, r.tag
	p.dropRequest(id)
	ev := p.event(OpWait, info.from, tag, info.bytes, wait, info.from, info.ctx)
	ev.ReqID = id
	p.emit(ev)
}

// Waitall completes every outstanding request of the rank. The dependence
// recorded is the request whose message arrived last — the rank that kept
// this rank waiting.
func (p *Proc) Waitall() bool {
	p.cont = cont{}
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
			if !p.resolve(r) {
				c.kind = contWaitall
				return false
			}
			c.bytes += r.claimed.bytes
			if c.last == nil || r.claimed.tArrive > c.last.tArrive {
				c.last = &r.claimed
			}
		}
		p.freeReqs = append(p.freeReqs, r)
	}
	p.reqs = p.reqs[:0]
	var wait float64
	depRank, depCtx := -1, NoCtx
	if c.last != nil {
		wait = p.waitUntil(c.last.tArrive)
		depRank, depCtx = c.last.from, c.last.ctx
	}
	if c.bytes > 0 {
		p.advance(c.bytes*netPerByte, AdvTransfer, &zeroVec)
	}
	p.emit(p.event(OpWaitall, depRank, 0, c.bytes, wait, depRank, depCtx))
	return true
}

// Sendrecv performs a combined exchange: both transfers proceed
// concurrently and the call completes when the incoming message arrives.
func (p *Proc) Sendrecv(dst, stag int, sbytes float64, src, rtag int, rbytes float64) bool {
	p.validPeer(dst)
	p.validPeer(src)
	p.validBytes(OpSendrecv, sbytes)
	p.validBytes(OpSendrecv, rbytes)
	p.mpiOverhead()
	p.advance(sbytes*netPerByte, AdvTransfer, &zeroVec)
	p.world.matcher.postSend(p.Rank, dst, stag, sbytes, p.Clock+netLatency, p.Ctx)
	info := p.world.matcher.claimRecv(p, src, rtag)
	if !info.matched {
		return p.park(cont{kind: contSendrecv, tag: rtag, bytes: sbytes})
	}
	p.finishSendrecv(rtag, sbytes, &info)
	return true
}

// finishSendrecv is the complete half of Sendrecv.
//
//scalana:hot
func (p *Proc) finishSendrecv(rtag int, sbytes float64, info *sendInfo) {
	wait := p.waitUntil(info.tArrive)
	p.advance(info.bytes*netPerByte, AdvTransfer, &zeroVec)
	p.emit(p.event(OpSendrecv, info.from, rtag, sbytes+info.bytes, wait, info.from, info.ctx))
}

// Outstanding reports the number of pending requests (testing aid).
func (p *Proc) Outstanding() int { return len(p.reqs) }

// zeroVec is the counter delta of every advance but compute and glue.
var zeroVec machine.Vec
