package mpisim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Cooperative virtual-time scheduling. A rank's program is a resumable
// value, not a goroutine: World.Run is one loop, on its caller's
// goroutine, that pops the ready rank with the smallest virtual clock
// (rank index breaks ties) and steps it. The rank runs until its program
// finishes or reaches a blocking point — a receive whose matching send
// has not been posted, a wait on an unmatched request, a collective still
// missing participants — where the operation records its continuation in
// the Proc and the stepper returns. Unblocking is a plain function call
// made by the rank being stepped (postSend delivering to a parked
// receiver, the last collective arriver releasing the slot): the woken
// rank is pushed back onto the ready heap, and when its clock comes up the
// loop runs the second half of its operation and steps it again.
//
// Because the execution order is a pure function of virtual clocks and
// rank indices, runs are deterministic by construction — nothing a host
// thread does influences matching or timing. It also makes deadlock
// detection exact: when the ready heap is empty while unfinished ranks
// remain, those ranks can never make progress, and the scheduler reports
// each of them with the operation it is blocked in.

// blockKind classifies why a rank is parked.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockRecv
	blockRecvAny
	blockColl
)

// blockState describes the operation a parked rank is blocked in; it is
// what the exact deadlock report prints per rank.
type blockState struct {
	kind     blockKind
	src, tag int
	seq      int
	op       Op
}

func (b blockState) String() string {
	switch b.kind {
	case blockRecv:
		return fmt.Sprintf("recv from rank %d tag %d (message #%d never sent)", b.src, b.tag, b.seq)
	case blockRecvAny:
		return fmt.Sprintf("recv from any source tag %d (no matching send)", b.tag)
	case blockColl:
		return fmt.Sprintf("%s #%d (collective missing participants)", b.op, b.seq)
	}
	return "unknown operation"
}

// contKind names the blocking operation a parked rank is in the middle of.
type contKind uint8

const (
	contNone contKind = iota
	contRecv
	contRecvAny
	contSendrecv
	contWait
	contWaitall
	contColl
)

// cont is a parked rank's continuation: the locals of its blocking
// operation that cross the blocking point, which a goroutine would have
// kept on its stack. A rank blocks in at most one operation, so each Proc
// has one, and operations share its fields to keep a Proc small. kind is
// contNone unless the rank is parked.
type cont struct {
	kind contKind
	from int32 // the source a parked RecvAny matched (its result)
	tag  int   // receive tag (Recv, RecvAny, Sendrecv)
	// bytes is the Sendrecv send size, the collective payload, or the
	// Waitall running total.
	bytes float64
	// idx is the id of the request a Wait is completing, or the index in
	// Proc.reqs of the next request a Waitall has to complete.
	idx int
	// last is the latest-arriving message a Waitall has seen — the rank
	// that kept this one waiting — in the claimed slot of its request,
	// which no operation reuses before the Waitall completes.
	last *sendInfo
	slot *collSlot // the collective the rank arrived in
}

// park records the continuation of an operation whose post half could not
// complete and returns the operation's result: false, "parked".
func (p *Proc) park(c cont) bool {
	p.cont = c
	return p.parked()
}

// parked is the result of an operation that parked. Under World.Run that
// is false — the stepper returns to the driver. Under RunBlocking the
// body's goroutine sleeps here until the driver has run the complete half,
// so the operation reports completion like one that never parked.
func (p *Proc) parked() bool {
	if b := p.world.blocking; b != nil {
		b.yield(p)
		return true
	}
	return false
}

// resume runs the complete half of the operation the rank parked in, with
// the send its waker matched. It reports false when the operation parked
// again (a Waitall meeting a second message not yet sent).
//
//scalana:hot
func (p *Proc) resume() bool {
	c := &p.cont
	kind := c.kind
	c.kind = contNone
	info := &p.wakeInfo
	switch kind {
	case contRecv:
		p.finishRecv(OpRecv, c.tag, info)
	case contRecvAny:
		c.from = int32(info.from)
		p.finishRecv(OpRecvAny, c.tag, info)
	case contSendrecv:
		p.finishSendrecv(c.tag, c.bytes, info)
	case contWait:
		p.finishWait(p.FindRequest(c.idx), info)
	case contWaitall:
		p.reqs[c.idx].claimed = *info
		return p.waitallFrom()
	case contColl:
		p.finishCollective(c.slot, c.bytes)
	}
	return true
}

// reverseTieBreak is a test hook: when set, equal virtual clocks resolve
// to the highest rank instead of the lowest. Determinism tests flip it to
// prove that reports do not depend on the tie-breaking discipline —
// outputs are byte-identical either way because all matching and timing
// derive from virtual clocks alone.
var reverseTieBreak atomic.Bool

// SetReverseTieBreak flips the scheduler's tie-breaking order between
// equal virtual clocks. It exists for determinism tests only.
func SetReverseTieBreak(v bool) { reverseTieBreak.Store(v) }

// rankEnt is one ready-heap entry.
type rankEnt struct {
	clock float64
	rank  int32
}

type scheduler struct {
	w     *World
	ready []rankEnt
	// current is the rank being stepped, -1 outside World.Run; started
	// says a driver loop is running, so a parked rank has peers to wake it.
	current int
	started bool
}

// reset readies the scheduler for a new job of w, keeping its heap.
func (s *scheduler) reset(w *World) {
	*s = scheduler{w: w, ready: s.ready[:0], current: -1}
}

// less orders the ready heap: smallest virtual clock first, rank index as
// the deterministic tie-break (reversed under the test hook).
//
//scalana:hot
func (s *scheduler) less(a, b rankEnt) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	if reverseTieBreak.Load() {
		return a.rank > b.rank
	}
	return a.rank < b.rank
}

// pushReady sifts a newly runnable rank into the ready heap.
//
//scalana:hot
func (s *scheduler) pushReady(clock float64, rank int32) {
	s.ready = append(s.ready, rankEnt{clock, rank})
	i := len(s.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.ready[i], s.ready[parent]) {
			break
		}
		s.ready[i], s.ready[parent] = s.ready[parent], s.ready[i]
		i = parent
	}
}

// popReady removes and returns the minimum entry's rank, or -1 when the
// heap is empty.
//
//scalana:hot
func (s *scheduler) popReady() int {
	n := len(s.ready)
	if n == 0 {
		return -1
	}
	top := s.ready[0].rank
	s.ready[0] = s.ready[n-1]
	s.ready = s.ready[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(s.ready[l], s.ready[min]) {
			min = l
		}
		if r < n && s.less(s.ready[r], s.ready[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.ready[i], s.ready[min] = s.ready[min], s.ready[i]
		i = min
	}
	return int(top)
}

// begin arms the scheduler for one World.Run: every rank is ready at its
// current clock.
func (s *scheduler) begin() {
	s.started = true
	s.ready = s.ready[:0]
	for r, p := range s.w.procs {
		p.block = blockState{}
		p.cont.kind = contNone
		s.pushReady(p.Clock, int32(r))
	}
}

// run is one World.Run: the driver loop behind the recover that turns a
// panic on a rank — in its program or in an MPI operation — into the run's
// error.
func (s *scheduler) run(step Stepper) (err error) {
	s.begin()
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("rank %d: %v", s.current, rec)
		}
		s.started, s.current = false, -1
	}()
	return s.drive(step)
}

// drive is the scheduler: it steps the ready rank with the smallest clock
// until every rank has finished. A rank popped with a continuation first
// runs the complete half of the operation it parked in; a drained heap
// with ranks unfinished is a deadlock.
//
//scalana:hot
func (s *scheduler) drive(step Stepper) error {
	procs := s.w.procs
	for live := len(procs); live > 0; {
		r := s.popReady()
		if r < 0 {
			return s.deadlock()
		}
		s.current = r
		p := procs[r]
		if p.cont.kind != contNone && !p.resume() {
			continue
		}
		if step(p) {
			live--
		} else if p.cont.kind == contNone {
			panic("mpisim: stepper returned unfinished without parking in a blocking operation")
		}
	}
	return nil
}

// blockOn records the operation rank p is about to park in. The waker
// clears it and stores any wake payload before pushing the rank back onto
// the ready heap.
func (s *scheduler) blockOn(p *Proc, b blockState) {
	if !s.started {
		panic(fmt.Sprintf("mpisim: rank %d would block forever in %s — blocking operations outside World.Run have no peers to wake them", p.Rank, b))
	}
	p.block = b
	p.yields++
}

// wake marks a parked rank ready again at its current clock. Called by
// the rank being stepped (a matching send, the last collective arriver);
// the woken rank resumes when the driver pops it.
func (s *scheduler) wake(rank int) {
	p := s.w.procs[rank]
	p.block = blockState{}
	s.pushReady(p.Clock, int32(rank))
}

// deadlock reports the exact deadlock: every unfinished rank with the
// operation it is blocked in.
func (s *scheduler) deadlock() error {
	var sb strings.Builder
	n := 0
	for _, p := range s.w.procs {
		if p.block.kind == blockNone {
			continue
		}
		fmt.Fprintf(&sb, "\n  rank %d: blocked in %s", p.Rank, p.block)
		n++
	}
	return errors.New("mpisim: deadlock: no rank can make progress; " +
		fmt.Sprintf("%d rank(s) blocked forever:", n) + sb.String())
}
