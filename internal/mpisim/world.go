package mpisim

import (
	"fmt"
	"math"

	"scalana/internal/machine"
	"scalana/internal/slab"
)

// The LogGP-style interconnect cost model: a 100 Gb/s EDR InfiniBand
// fabric.
const (
	netLatency  float64 = 1.8e-6     // L: wire latency per message (seconds)
	netPerByte  float64 = 1.0 / 10e9 // G: per-byte transfer/copy time (seconds)
	netOverhead float64 = 0.6e-6     // o: CPU overhead per MPI operation (seconds)
)

// Config configures a World.
type Config struct {
	NP int
	// MemSpeed returns the relative memory speed of the core hosting a rank
	// (see machine.NewCore); nil means uniform.
	MemSpeed func(rank int) float64
	// Seed seeds the per-rank deterministic RNGs.
	Seed int64
	// HookFactory creates each rank's tool hook; nil (or a nil hook) means
	// no tool.
	HookFactory func(rank int) Hook
}

// World is one simulated MPI job: np ranks, the matcher and collective
// slots they meet in, and the scheduler that steps them. A world belongs
// to one goroutine — the one that calls Run — and starts none of its own.
// Once a run has returned, Reset makes the world a new job that reuses
// its slabs.
type World struct {
	np    int
	procs []*Proc
	// procSlab holds the ranks and reqLists their request lists.
	procSlab []Proc
	reqLists []*Request
	matcher  matcher
	colls    collectives
	sched    scheduler
	// glue is the counter delta of the n = glue[TotIns] instructions a rank
	// last asked Glue to charge and glueDt their time. The VM charges the
	// same n for every statement of every rank, so they are priced once.
	glue   machine.Vec
	glueDt float64
	// kernel is the compute kernel a rank last had priced. A rank runs a
	// loop's kernel over and over before it parks and another rank runs.
	kernel kernel
	// blocking is set for the length of a RunBlocking: the adapter that
	// lets a parked operation sleep on its body's goroutine instead of
	// returning to the stepper. Nil in every production run.
	blocking *blockingBodies
}

// NewWorld creates a world with np ranks.
func NewWorld(cfg Config) *World {
	w := new(World)
	w.Reset(cfg)
	return w
}

// Reset makes w the world NewWorld(cfg) would create, reusing the slabs
// its earlier runs left: a slab that holds what the new job needs is
// resliced and only the slots the job uses are written, and a slab too
// small is allocated anew. What a run does never depends on what the
// world ran before — a failed run included — because every field a run
// reads is written here or before it is read. Reset must not be called
// while a Run is in progress.
func (w *World) Reset(cfg Config) {
	if cfg.NP <= 0 {
		panic("mpisim: NP must be positive")
	}
	np := cfg.NP
	w.np = np
	w.glue, w.glueDt, w.kernel, w.blocking = machine.Vec{}, 0, kernel{}, nil
	w.sched.reset(w)
	w.matcher.reset(w)
	w.colls.reset(w)
	w.procs = slab.Resize(w.procs, np)
	w.procSlab = slab.Resize(w.procSlab, np)
	w.reqLists = slab.Resize(w.reqLists, 2*np*reqsCap)
	for r := range np {
		p := &w.procSlab[r]
		reqs, free := 2*r*reqsCap, (2*r+1)*reqsCap
		*p = Proc{
			world: w, Rank: r, Core: machine.NewCore(cfg.MemSpeed, r),
			reqs: w.reqLists[reqs:reqs:free], freeReqs: w.reqLists[free : free : free+reqsCap],
			rng:    NewStream(cfg.Seed*7919 + int64(r) + 1),
			period: math.Inf(1), nextAt: math.Inf(1),
		}
		if cfg.HookFactory != nil {
			p.attach(cfg.HookFactory(r))
		}
		w.procs[r] = p
	}
}

// Idle readies a finished world to wait for its next Reset: it drops
// every reference the run's ranks, inboxes and channels hold beyond the
// world's slabs — a rank's hook, its drawn random stream and grown request
// lists, an inbox's index, a channel's grown queue — and returns the bytes
// the world holds once a Reset for the job it last ran is done. Idle must
// not be called while a Run is in progress.
func (w *World) Idle() int {
	clear(w.procSlab[:cap(w.procSlab)])
	clear(w.reqLists[:cap(w.reqLists)])
	w.blocking = nil
	return slab.Bytes(w.procs) + slab.Bytes(w.procSlab) + slab.Bytes(w.reqLists) +
		w.matcher.idle() + w.colls.bytes() + slab.Bytes(w.sched.ready)
}

// NP returns the number of ranks.
func (w *World) NP() int { return w.np }

// Proc returns the given rank's process state.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// RunResult summarizes a completed run.
type RunResult struct {
	// Elapsed is the job's virtual makespan: the maximum rank clock.
	Elapsed float64
	// Clocks holds each rank's final virtual clock.
	Clocks []float64
	// PerturbTotal is the summed virtual tool overhead across ranks.
	PerturbTotal float64
	// The simulator's own event counts, summed over ranks. They are a
	// pure function of program, scale, seed and tool configuration, so
	// they repeat exactly where host timings do not.
	//
	// Advances counts virtual-time advances, Events completed MPI
	// operations reported to hooks, Yields the times a rank parked in a
	// blocking operation, and Samples the advances that fired the rank's
	// sampling timer (crossed one or more period boundaries of its
	// TimerSampler) and were charged for it: a perturbation advance never
	// is, and what an AdvanceObserver charges — a tracer's region records
	// — is not a sample. Zero for a run without a TimerSampler.
	Advances, Events, Yields, Samples int64
}

// Stepper runs one rank's program until it finishes (true) or parks in a
// blocking MPI operation (false: the operation returned its "parked"
// result and the stepper must return at once, keeping whatever it needs to
// continue after that operation). World.Run calls it again once the
// operation has completed.
type Stepper func(p *Proc) (finished bool)

// Run executes the job under the cooperative virtual-time scheduler, on
// the calling goroutine: it steps the ready rank with the smallest virtual
// clock until every rank's program has finished. A panic on any rank ends
// the run and is returned as that rank's error; a deadlock (no rank can
// make progress) fails the run immediately with a per-rank diagnostic.
func (w *World) Run(step Stepper) (RunResult, error) {
	err := w.sched.run(step)
	res := RunResult{Clocks: make([]float64, w.np)}
	for r, p := range w.procs {
		res.Clocks[r] = p.Clock
		res.PerturbTotal += p.PerturbTotal
		res.Advances += p.advances
		res.Events += p.events
		res.Yields += p.yields
		res.Samples += p.samples
		if p.Clock > res.Elapsed {
			res.Elapsed = p.Clock
		}
	}
	return res, err
}

// Proc is the per-rank execution state: the virtual clock, the PMU core,
// outstanding requests, the tool hook, the attribution context (the PSG
// vertex currently executing, set by the VM), and — while the rank is
// parked — the continuation of the one operation it is blocked in.
//
// The blocking operations (Recv, RecvAny, Wait, Waitall, Sendrecv and the
// collectives) are each split at their single blocking point. The post
// half runs in the call; when the operation cannot complete yet the rank
// parks — the call reports false (RecvAny: Parked) and its stepper must
// return to World.Run — and the complete half runs from the driver loop
// once a peer has woken the rank. Under RunBlocking the same calls block
// and always report completion.
type Proc struct {
	world *World
	Rank  int
	// Clock is the rank's virtual time in seconds.
	Clock float64
	Core  machine.Core
	// Ctx is the current attribution context: the VID of the PSG vertex
	// the VM is executing (opaque to the simulator).
	Ctx Ctx
	// PerturbTotal accumulates virtual tool overhead (AdvPerturb).
	PerturbTotal float64

	// hook receives MPI events; observer and sampler are that same hook
	// when it also sees every advance or is driven by the timer below.
	hook     Hook
	observer AdvanceObserver
	sampler  TimerSampler
	// The sampling timer: bucket is int64(Clock/period) as of the previous
	// advance, and an advance that moves it has crossed that many period
	// boundaries. nextAt is a clock at or below the first of bucket+1, so
	// an advance that ends below it moved nothing and divides nothing
	// (DESIGN.md §3); it is -Inf on a rank an AdvanceObserver watches.
	// Without a sampler the period is +Inf and the bucket stays 0. pmu
	// accumulates the PMU counter deltas since the last sample.
	period float64
	nextAt float64
	bucket int64
	pmu    machine.Vec
	// rng is the rank's Rand stream. It costs nothing until drawn, and
	// most ranks never draw.
	rng     Stream
	reqs    []*Request
	nextReq int
	collSeq int

	// block describes the operation a parked rank is blocked in (exact
	// deadlock diagnostics print it), cont is what its complete half needs
	// and wakeInfo carries the matched send delivered by the waker.
	block    blockState
	cont     cont
	wakeInfo sendInfo

	// evScratch stages events for emit: the hook receives a pointer into
	// it, valid only for the duration of the callback, so steady-state
	// simulation emits events without allocating.
	evScratch Event
	// freeReqs recycles completed request handles.
	freeReqs []*Request

	// Event counts behind RunResult's counters.
	advances, events, yields, samples int64
}

// NP returns the job size.
func (p *Proc) NP() int { return p.world.np }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// Rand returns a deterministic per-rank pseudo-random float64 in [0,1).
func (p *Proc) Rand() float64 { return p.rng.Float64() }

// attach files the rank's hook under the callbacks it implements and sets
// the sampling timer's period if it asks for one.
func (p *Proc) attach(h Hook) {
	p.hook = h
	p.observer, _ = h.(AdvanceObserver)
	if s, ok := h.(TimerSampler); ok {
		if p.period = s.SamplePeriod(); !(p.period > 0) {
			panic(fmt.Sprintf("mpisim: rank %d timer sampler asks for a period of %g s", p.Rank, p.period))
		}
		p.nextAt = bucketStart(1, p.period)
		p.sampler = s
	}
	if p.observer != nil {
		p.nextAt = math.Inf(-1) // every advance calls the hook
	}
}

// bucketStart is a clock at or below the first clock of the given bucket
// of the timer: one a division of which could land in it. The margin,
// a millionth of a millionth, is far above a division's rounding.
func bucketStart(bucket int64, period float64) float64 {
	return float64(bucket) * period * (1 - 1e-12)
}

// advance moves the clock forward. Between timer samples, on a rank no
// hook observes advance by advance, that is all it does (quietly);
// everything else is outlined into advanceTick.
//
//scalana:hot
func (p *Proc) advance(dt float64, kind AdvanceKind, pmu *machine.Vec) {
	if !p.quietly(dt) {
		p.advanceTick(dt, kind, pmu)
	}
}

// quietly is advance's common case, small enough to inline into it and,
// with advanceTick behind it as in advance, into Glue and Compute: it
// moves the clock by dt and reports true, unless the advance must refuse
// dt or may call the hook. An infinite dt never moves quietly, its clock
// not being below nextAt, and no advance of an observed rank does: its
// nextAt is -Inf.
//
//scalana:hot
func (p *Proc) quietly(dt float64) bool {
	if clock := p.Clock + dt; dt >= 0 && clock < p.nextAt {
		p.Clock = clock
		p.advances++
		return true
	}
	return false
}

// advanceTick is an advance that may call the hook or fail the rank. A
// step back of a rounding error's size is no step; a longer one, or a
// non-finite one, fails the rank: the timer's gate needs a clock that is
// finite and never decreases.
//
//go:noinline
func (p *Proc) advanceTick(dt float64, kind AdvanceKind, pmu *machine.Vec) {
	switch {
	case math.IsNaN(dt) || math.IsInf(dt, 0):
		panic(fmt.Sprintf("mpisim: rank %d advance by a non-finite %g s", p.Rank, dt))
	case dt <= -1e-12:
		panic(fmt.Sprintf("mpisim: rank %d time going backwards by %g", p.Rank, -dt))
	case dt < 0:
		dt = 0
	}
	from := p.Clock
	p.Clock += dt
	p.advances++
	if p.Clock >= p.nextAt {
		p.tick(from, kind, pmu)
	}
}

// tick is the part of an advance that calls the hook: as an every-advance
// observer first, then as the timer sampler if the advance crossed a
// period boundary. pmu is the advance's own counter delta, which only the
// observer is shown. The overhead asked for is summed in that order and
// charged as one follow-up AdvPerturb advance; what is asked for while
// observing that one is ignored.
//
//scalana:hot
func (p *Proc) tick(from float64, kind AdvanceKind, pmu *machine.Vec) {
	var owed float64
	if p.observer != nil {
		owed = p.observer.Advance(p, from, p.Clock, kind, p.Ctx, *pmu)
	}
	if bucket := int64(p.Clock / p.period); bucket != p.bucket {
		crossings := bucket - p.bucket
		p.bucket = bucket
		if p.observer == nil {
			p.nextAt = bucketStart(bucket+1, p.period)
		}
		owed += p.sampler.Sample(p, crossings, p.period, &p.pmu)
		p.pmu = machine.Vec{}
		if kind != AdvPerturb {
			p.samples++
		}
	}
	if owed > 0 && kind != AdvPerturb {
		p.Perturb(owed)
	}
}

// event stages the event of an operation that completed at the rank's
// clock in the rank's scratch storage, with every field it is not given
// zero, and returns it for the operation to set the rest and emit. It is
// built in place: an 80-byte Event is not built and copied.
//
//scalana:hot
func (p *Proc) event(op Op, peer, tag int, bytes, wait float64, depRank int, depCtx Ctx) *Event {
	ev := &p.evScratch
	*ev = Event{}
	ev.Op, ev.Peer, ev.Tag, ev.Bytes = op, peer, tag, bytes
	ev.TEnd, ev.Wait = p.Clock, wait
	ev.DepRank, ev.DepCtx = depRank, depCtx
	return ev
}

// emit reports one completed MPI operation to the rank's hook. The
// operations stage the event in per-rank scratch storage (event) that the
// next operation overwrites; a hook must copy any fields it keeps (see
// Hook).
//
//scalana:hot
func (p *Proc) emit(ev *Event) {
	ev.Ctx = p.Ctx
	p.events++
	if p.hook == nil {
		return
	}
	if owed := p.hook.MPIEvent(p, ev); owed > 0 {
		p.Perturb(owed)
	}
}

// kernel is one priced compute kernel: the core and the bits of the four
// operands it was priced for, and the counter deltas and time
// machine.Core.Compute gave. Its zero value is the price of an empty
// kernel on the zero core, which is what Compute would give.
type kernel struct {
	core machine.Core
	ops  [4]uint64
	d    machine.Vec
	dt   float64
}

// Compute executes application computation through the machine model. A
// kernel its world last priced — on an equal core, with the same operands
// bit for bit — is not priced again: the price is a function of them.
//
//scalana:hot
func (p *Proc) Compute(flops, loads, stores, ws float64) {
	k := &p.world.kernel
	ops := [4]uint64{math.Float64bits(flops), math.Float64bits(loads), math.Float64bits(stores), math.Float64bits(ws)}
	if ops != k.ops || p.Core != k.core {
		k.dt = p.Core.Compute(flops, loads, stores, ws, &k.d)
		k.core, k.ops = p.Core, ops
	}
	p.pmu.Add(k.d)
	if !p.quietly(k.dt) {
		p.advanceTick(k.dt, AdvCompute, &k.d)
	}
}

// Glue charges n abstract bookkeeping instructions (interpreter overhead).
//
//scalana:hot
func (p *Proc) Glue(n float64) {
	w := p.world
	if n != w.glue[machine.TotIns] {
		w.glue[machine.TotIns] = n
		w.glue[machine.TotCyc], w.glueDt = machine.Overhead(n)
	}
	p.pmu[machine.TotIns] += n
	p.pmu[machine.TotCyc] += w.glue[machine.TotCyc]
	if !p.quietly(w.glueDt) {
		p.advanceTick(w.glueDt, AdvGlue, &w.glue)
	}
}

// Perturb charges virtual measurement-tool overhead. The overhead
// experiments (paper Table I, Figs. 10/13) compare job makespans with and
// without tools attached; tools call Perturb for their per-sample or
// per-record costs so the comparison captures the same mechanism as on
// real hardware.
func (p *Proc) Perturb(dt float64) {
	p.PerturbTotal += dt
	p.advance(dt, AdvPerturb, &zeroVec)
}

// mpiOverhead charges the CPU entry cost of one MPI operation.
func (p *Proc) mpiOverhead() {
	p.advance(netOverhead, AdvMPIOverhead, &zeroVec)
}

// waitUntil blocks virtual time until t (no-op if already past).
func (p *Proc) waitUntil(t float64) float64 {
	if t <= p.Clock {
		return 0
	}
	w := t - p.Clock
	p.advance(w, AdvWait, &zeroVec)
	return w
}

// Barrier synchronizes all ranks. Like every collective it reports false
// when the rank parked waiting for the others.
func (p *Proc) Barrier() bool { return p.collective(OpBarrier, -1, 0) }

// Bcast broadcasts bytes from root.
func (p *Proc) Bcast(root int, bytes float64) bool { return p.collective(OpBcast, root, bytes) }

// Reduce reduces bytes to root.
func (p *Proc) Reduce(root int, bytes float64) bool { return p.collective(OpReduce, root, bytes) }

// Allreduce reduces bytes to all ranks.
func (p *Proc) Allreduce(bytes float64) bool { return p.collective(OpAllreduce, -1, bytes) }

// Alltoall exchanges bytes with every rank.
func (p *Proc) Alltoall(bytes float64) bool { return p.collective(OpAlltoall, -1, bytes) }

// Allgather gathers bytes from every rank to all.
func (p *Proc) Allgather(bytes float64) bool { return p.collective(OpAllgather, -1, bytes) }
