package mpisim

import (
	"fmt"
	"math"
)

// Collective synchronization. All ranks must invoke collectives in the
// same program order (SPMD); the k-th collective of every rank meets in
// one slot. The last-arriving rank computes the completion time, and every
// participant learns who the straggler was — the inter-process dependence
// edge ScalAna's backtracking follows out of a slow collective.
//
// Under run-to-block scheduling a slot is a plain arrival counter: each
// rank that arrives before the last parks on the slot, and the last
// arriver computes the result and readies all of them. No mutex or
// completion channel is needed — only the rank being stepped ever touches
// a slot.

type arrival struct {
	t   float64
	ctx Ctx
}

type collSlot struct {
	seq      int // the collective's number in program order
	op       Op
	root     int
	arrivals []arrival
	got      int
	// waiters are the ranks parked on this slot, readied by the last
	// arriver.
	waiters []int
	// computed by the last arriver:
	tMax     float64
	depRank  int
	depCtx   Ctx
	complete float64
	reads    int
}

type collectives struct {
	w *World
	// live is the window of collectives some rank is still inside, in
	// sequence order: live[i] is collective number base+i. Collectives
	// retire in order — nobody enters number k+1 before leaving k — so
	// the window is a slot or two long and indexing it by sequence number
	// replaces a map lookup.
	live []*collSlot
	base int
	// free recycles retired slots. A slot retires only after every rank
	// has read its results (reads == np), so reuse cannot confuse
	// readers; the arrivals slice is reused as-is because all np entries
	// are rewritten before the last arriver inspects them.
	free []*collSlot
}

func newCollectives(w *World) *collectives {
	return &collectives{w: w}
}

// slotFor returns the slot of collective number seq, opening it when the
// calling rank is the first to arrive.
func (c *collectives) slotFor(seq int, op Op, root int) *collSlot {
	i := seq - c.base
	if i == len(c.live) {
		c.live = append(c.live, c.newSlot(seq, op, root))
	}
	return c.live[i]
}

// retire recycles a slot every rank has read and slides the window past
// it.
func (c *collectives) retire(slot *collSlot) {
	i := slot.seq - c.base
	c.free = append(c.free, slot)
	c.live[i] = nil
	for len(c.live) > 0 && c.live[0] == nil {
		c.live = c.live[:copy(c.live, c.live[1:])]
		c.base++
	}
}

// newSlot allocates or recycles a slot.
func (c *collectives) newSlot(seq int, op Op, root int) *collSlot {
	var slot *collSlot
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
		arr, wtr := slot.arrivals, slot.waiters[:0]
		*slot = collSlot{arrivals: arr, waiters: wtr}
	} else {
		slot = &collSlot{arrivals: make([]arrival, c.w.np)}
	}
	slot.seq, slot.op, slot.root = seq, op, root
	slot.depRank = -1
	return slot
}

// cost returns the collective's completion cost beyond the last arrival,
// using tree/butterfly algorithm shapes over the LogGP parameters.
func (w *World) collCost(op Op, bytes float64, n int) float64 {
	logn := ceilLog2b(n)
	switch op {
	case OpBarrier:
		return logn * (netLatency + netOverhead)
	case OpBcast, OpReduce:
		return logn * (netLatency + bytes*netPerByte + netOverhead)
	case OpAllreduce:
		// reduce-scatter + allgather butterfly: 2 log n stages.
		return 2 * logn * (netLatency + bytes*netPerByte + netOverhead)
	case OpAlltoall:
		return float64(n-1)*(netOverhead+bytes*netPerByte) + netLatency*logn
	case OpAllgather:
		return logn*netLatency + float64(n-1)*bytes*netPerByte
	}
	panic(fmt.Sprintf("mpisim: unknown collective %q", op))
}

func ceilLog2b(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Ceil(math.Log2(float64(n)))
}

// collective executes one collective operation on the calling rank: the
// arrival, and — for the last arriver — the completion; every earlier
// arriver parks (false) and completes when the last one wakes it.
func (p *Proc) collective(op Op, root int, bytes float64) bool {
	p.validBytes(op, bytes)
	p.mpiOverhead()
	seq := p.collSeq
	p.collSeq++

	slot := p.world.colls.slotFor(seq, op, root)
	if slot.op != op {
		panic(fmt.Sprintf("mpisim: rank %d called %s where other ranks called %s (collective #%d mismatch)", p.Rank, op, slot.op, seq))
	}
	if slot.root != root {
		panic(fmt.Sprintf("mpisim: rank %d used root %d where other ranks used %d in %s", p.Rank, root, slot.root, op))
	}
	slot.arrivals[p.Rank] = arrival{t: p.Clock, ctx: p.Ctx}
	slot.got++
	if slot.got < p.world.np {
		slot.waiters = append(slot.waiters, p.Rank)
		p.world.sched.blockOn(p, blockState{kind: blockColl, op: op, seq: seq})
		return p.park(cont{kind: contColl, slot: slot, bytes: bytes})
	}
	for r, a := range slot.arrivals {
		if a.t > slot.tMax || slot.depRank == -1 {
			slot.tMax = a.t
			slot.depRank = r
			slot.depCtx = a.ctx
		}
	}
	slot.complete = slot.tMax + p.world.collCost(op, bytes, p.world.np)
	for _, r := range slot.waiters {
		p.world.sched.wake(r)
	}
	slot.waiters = slot.waiters[:0]
	p.finishCollective(slot, bytes)
	return true
}

// finishCollective is the complete half of a collective: wait out the
// completion time the last arriver computed, report the event, and retire
// the slot once every rank has read it.
//
//scalana:hot
func (p *Proc) finishCollective(slot *collSlot, bytes float64) {
	myArrival := p.Clock
	wait := slot.tMax - myArrival
	if wait < 0 {
		wait = 0
	}
	p.waitUntil(slot.complete)

	depRank := slot.depRank
	depCtx := slot.depCtx
	if depRank == p.Rank {
		// This rank was the straggler; it depends on no one here.
		depRank, depCtx = -1, NoCtx
	}
	ev := p.event(slot.op, -1, 0, bytes, wait, depRank, depCtx)
	ev.Collective = true
	p.emit(ev)

	slot.reads++
	if slot.reads == p.world.np {
		p.world.colls.retire(slot)
	}
}
