package mpisim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Cooperative virtual-time scheduling. Exactly one rank is runnable at a
// time; every other rank goroutine is parked on its per-rank condition
// variable. A rank runs until it reaches a blocking point — a receive
// whose matching send has not been posted, a wait on an unmatched
// request, or a collective still missing participants — and then yields
// the baton back to the scheduler, which resumes the ready rank with the
// smallest virtual clock (rank index breaks ties). Unblocking is a plain
// function call made by the currently-running rank (postSend delivering
// to a parked receiver, the last collective arriver releasing the slot):
// the woken rank is pushed back onto the ready heap and runs when its
// clock comes up.
//
// Because the execution order is a pure function of virtual clocks and
// rank indices, runs are deterministic by construction — no goroutine
// preemption, channel wakeup order, or wall-clock timer ever influences
// matching or timing. It also makes deadlock detection exact: when the
// ready heap is empty while unfinished ranks remain, those ranks can
// never make progress, and the scheduler reports each of them with the
// operation it is blocked in.

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
	op       string
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
	w *World
	// mu guards the baton handoff (current, aborted) and the parked
	// ranks' condition variables. The ready heap and block states are
	// only ever touched by the single running rank (or by World.Run
	// before any rank starts), so the baton handoff's lock/unlock pair
	// is the one synchronization point per yield.
	mu      sync.Mutex
	ready   []rankEnt
	current int
	started bool
	live    int
	aborted bool
}

const abortMsg = "mpisim: run aborted by failure on another rank"

func newScheduler(w *World) *scheduler {
	return &scheduler{w: w, current: -1}
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
// current clock and the baton is pre-granted to the minimum. Called
// before the rank goroutines spawn, so no locking is contended.
func (s *scheduler) begin() {
	s.mu.Lock()
	s.started = true
	s.aborted = false
	s.live = s.w.np
	s.ready = s.ready[:0]
	for r := 0; r < s.w.np; r++ {
		s.w.procs[r].block = blockState{}
		s.pushReady(s.w.procs[r].Clock, int32(r))
	}
	s.current = s.popReady()
	s.mu.Unlock()
}

// end disarms the scheduler after World.Run completes.
func (s *scheduler) end() {
	s.mu.Lock()
	s.started = false
	s.current = -1
	s.mu.Unlock()
}

// acquire parks the calling rank until the scheduler grants it the baton
// for the first time.
func (s *scheduler) acquire(p *Proc) {
	s.mu.Lock()
	for s.current != p.Rank && !s.aborted {
		p.cond.Wait()
	}
	ab := s.aborted
	s.mu.Unlock()
	if ab {
		panic(abortMsg)
	}
}

// yieldBlocked parks the calling rank on its recorded block state and
// hands the baton to the next ready rank. The caller must have set
// p.block; the waker clears it and stores any wake payload before
// pushing the rank back onto the ready heap.
func (s *scheduler) yieldBlocked(p *Proc) {
	s.mu.Lock()
	if !s.started {
		b := p.block
		p.block = blockState{}
		s.mu.Unlock()
		panic(fmt.Sprintf("mpisim: rank %d would block forever in %s — blocking operations outside World.Run have no peers to wake them", p.Rank, b))
	}
	if s.aborted {
		s.mu.Unlock()
		panic(abortMsg)
	}
	p.yields++
	s.handoffLocked()
	for s.current != p.Rank && !s.aborted {
		p.cond.Wait()
	}
	ab := s.aborted
	s.mu.Unlock()
	if ab {
		panic(abortMsg)
	}
}

// wake marks a parked rank ready again at its current clock. Called by
// the running rank (a matching send, the last collective arriver); the
// woken goroutine stays parked until the scheduler picks it.
func (s *scheduler) wake(rank int) {
	p := s.w.procs[rank]
	p.block = blockState{}
	s.pushReady(p.Clock, int32(rank))
}

// exit retires the calling rank after its body returned (or panicked and
// was recovered) and passes the baton on.
func (s *scheduler) exit(p *Proc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
	if s.aborted {
		return
	}
	if s.live == 0 {
		s.started = false
		s.current = -1
		return
	}
	s.handoffLocked()
}

// handoffLocked grants the baton to the minimum-clock ready rank, or —
// when no rank is ready while unfinished ranks remain — declares an
// exact deadlock. Caller holds s.mu.
func (s *scheduler) handoffLocked() {
	next := s.popReady()
	if next < 0 {
		s.deadlockLocked()
		return
	}
	s.current = next
	s.w.procs[next].cond.Signal()
}

// deadlockLocked reports the exact deadlock: every unfinished rank with
// the operation it is blocked in, then aborts the run. Caller holds s.mu.
func (s *scheduler) deadlockLocked() {
	var sb strings.Builder
	n := 0
	for _, p := range s.w.procs {
		if p.block.kind == blockNone {
			continue
		}
		fmt.Fprintf(&sb, "\n  rank %d: blocked in %s", p.Rank, p.block)
		n++
	}
	s.w.fail(errors.New("mpisim: deadlock: no rank can make progress; " +
		fmt.Sprintf("%d rank(s) blocked forever:", n) + sb.String()))
	s.abortLocked()
}

// abortAll wakes every parked rank so it unwinds with an abort panic.
// Called after World.fail when a rank dies.
func (s *scheduler) abortAll() {
	s.mu.Lock()
	s.abortLocked()
	s.mu.Unlock()
}

func (s *scheduler) abortLocked() {
	s.aborted = true
	for _, p := range s.w.procs {
		p.cond.Signal()
	}
}
