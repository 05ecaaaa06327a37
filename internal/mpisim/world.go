package mpisim

import (
	"fmt"
	"math"
	"math/rand"

	"scalana/internal/machine"
)

// NetConfig is the LogGP-style interconnect cost model.
type NetConfig struct {
	Latency  float64 // L: wire latency per message (seconds)
	PerByte  float64 // G: per-byte transfer/copy time (seconds)
	Overhead float64 // o: CPU overhead per MPI operation (seconds)
}

// DefaultNet resembles a 100 Gb/s EDR InfiniBand fabric.
func DefaultNet() NetConfig {
	return NetConfig{
		Latency:  1.8e-6,
		PerByte:  1.0 / 10e9,
		Overhead: 0.6e-6,
	}
}

// Config configures a World.
type Config struct {
	NP   int
	Net  NetConfig
	Core machine.Config
	// Seed seeds the per-rank deterministic RNGs.
	Seed int64
	// HookFactory creates per-rank tool hooks; nil means no tools.
	HookFactory func(rank int) []Hook
}

// World is one simulated MPI job: np ranks, the matcher and collective
// slots they meet in, and the scheduler that steps them. A world belongs
// to one goroutine — the one that calls Run — and starts none of its own.
type World struct {
	cfg     Config
	np      int
	procs   []*Proc
	matcher *matcher
	colls   *collectives
	sched   *scheduler
	// glue is the counter delta of the n = glue[TotIns] instructions a rank
	// last asked Glue to charge and glueDt their time. The VM charges the
	// same n for every statement of every rank, so they are priced once.
	glue   machine.Vec
	glueDt float64
	// blocking is set for the length of a RunBlocking: the adapter that
	// lets a parked operation sleep on its body's goroutine instead of
	// returning to the stepper. Nil in every production run.
	blocking *blockingBodies
}

// NewWorld creates a world with np ranks.
func NewWorld(cfg Config) *World {
	if cfg.NP <= 0 {
		panic("mpisim: NP must be positive")
	}
	if cfg.Net == (NetConfig{}) {
		cfg.Net = DefaultNet()
	}
	if cfg.Core.ClockHz == 0 {
		mem := cfg.Core.MemSpeed
		cfg.Core = machine.DefaultConfig()
		cfg.Core.MemSpeed = mem
	}
	w := &World{
		cfg: cfg,
		np:  cfg.NP,
	}
	w.sched = newScheduler(w)
	w.matcher = newMatcher(w)
	w.colls = newCollectives(w)
	w.procs = make([]*Proc, cfg.NP)
	procs := make([]Proc, cfg.NP)
	for r := 0; r < cfg.NP; r++ {
		p := &procs[r]
		p.world, p.Rank, p.Core = w, r, machine.NewCore(cfg.Core, r)
		var hooks []Hook
		if cfg.HookFactory != nil {
			hooks = cfg.HookFactory(r)
		}
		p.attach(hooks)
		w.procs[r] = p
	}
	return w
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
// outstanding requests, tool hooks, the attribution context (the PSG
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
	Core  *machine.Core
	// Ctx is the current attribution context (opaque to the simulator;
	// the interpreter stores the current *psg.Vertex here).
	Ctx any
	// PerturbTotal accumulates virtual tool overhead (AdvPerturb).
	PerturbTotal float64

	// hooks all receive MPI events; observers are the ones that also see
	// every advance, sampler the one the timer below drives.
	hooks     []Hook
	observers []AdvanceObserver
	sampler   TimerSampler
	// The sampling timer: bucket is int64(Clock/period) as of the previous
	// advance, and an advance that moves it has crossed that many period
	// boundaries. Without a sampler the period is +Inf and the bucket stays
	// 0. pmu accumulates the PMU counter deltas since the last sample.
	period float64
	bucket int64
	pmu    machine.Vec
	// rng is seeded lazily on the first Rand call: most workloads never
	// draw randomness, and seeding math/rand's source per rank is
	// expensive enough to show up in np=1024 sweeps.
	rng     *rand.Rand
	reqs    []*Request
	nextReq int
	collSeq int

	// block describes the operation a parked rank is blocked in (exact
	// deadlock diagnostics print it), cont is what its complete half needs
	// and wakeInfo carries the matched send delivered by the waker.
	block    blockState
	cont     cont
	wakeInfo *sendInfo

	// evScratch stages events for emit: hooks receive a pointer into it,
	// valid only for the duration of the callback, so steady-state
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
func (p *Proc) Rand() float64 {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.world.cfg.Seed*7919 + int64(p.Rank) + 1))
	}
	return p.rng.Float64()
}

// attach files the rank's hooks under the callbacks they implement and
// sets the sampling timer's period if one asks for it.
func (p *Proc) attach(hooks []Hook) {
	p.hooks = hooks
	p.period = math.Inf(1)
	for _, h := range hooks {
		if o, ok := h.(AdvanceObserver); ok {
			p.observers = append(p.observers, o)
		}
		if s, ok := h.(TimerSampler); ok {
			if p.sampler != nil {
				panic(fmt.Sprintf("mpisim: rank %d has two timer samplers; a rank has one sampling timer", p.Rank))
			}
			if p.period = s.SamplePeriod(); !(p.period > 0) {
				panic(fmt.Sprintf("mpisim: rank %d timer sampler asks for a period of %g s", p.Rank, p.period))
			}
			p.sampler = s
		}
	}
}

// advance moves the clock forward. Between timer samples, on a rank no
// hook observes advance by advance, that is all it does.
//
//scalana:hot
func (p *Proc) advance(dt float64, kind AdvanceKind, pmu *machine.Vec) {
	if dt < 0 {
		if dt > -1e-12 {
			dt = 0
		} else {
			panic(fmt.Sprintf("mpisim: rank %d time going backwards by %g", p.Rank, -dt))
		}
	}
	from := p.Clock
	p.Clock += dt
	p.advances++
	if int64(p.Clock/p.period) != p.bucket || len(p.observers) != 0 {
		p.tick(from, kind, pmu)
	}
}

// tick is the part of an advance that calls hooks: the every-advance
// observers first, in hook-list order, then the timer sampler if the
// advance crossed a period boundary. pmu is the advance's own counter
// delta, which only observers are shown. The overhead they ask for is
// summed in that order and charged as one follow-up AdvPerturb advance;
// what is asked for while observing that one is ignored.
//
//scalana:hot
func (p *Proc) tick(from float64, kind AdvanceKind, pmu *machine.Vec) {
	var owed float64
	for _, o := range p.observers {
		owed += o.Advance(p, from, p.Clock, kind, p.Ctx, *pmu)
	}
	if bucket := int64(p.Clock / p.period); bucket != p.bucket {
		crossings := bucket - p.bucket
		p.bucket = bucket
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

// emit reports one completed MPI operation to the rank's hooks. The
// event is staged in per-rank scratch storage that the next operation
// overwrites; hooks must copy any fields they keep (see Hook).
//
//scalana:hot
func (p *Proc) emit(ev *Event) {
	ev.Rank = p.Rank
	ev.Ctx = p.Ctx
	if ev.Kind != EvSendrecv {
		ev.SendPeer = -1
	}
	p.evScratch = *ev
	p.events++
	var owed float64
	for _, h := range p.hooks {
		owed += h.MPIEvent(p, &p.evScratch)
	}
	if owed > 0 {
		p.Perturb(owed)
	}
}

// Compute executes application computation through the machine model.
//
//scalana:hot
func (p *Proc) Compute(flops, loads, stores, ws float64) {
	var d machine.Vec
	dt := p.Core.Compute(flops, loads, stores, ws, &d)
	p.pmu.Add(d)
	p.advance(dt, AdvCompute, &d)
}

// Glue charges n abstract bookkeeping instructions (interpreter overhead).
//
//scalana:hot
func (p *Proc) Glue(n float64) {
	w := p.world
	if n != w.glue[machine.TotIns] {
		w.glue[machine.TotIns] = n
		w.glue[machine.TotCyc], w.glueDt = w.cfg.Core.Overhead(n)
	}
	p.pmu[machine.TotIns] += n
	p.pmu[machine.TotCyc] += w.glue[machine.TotCyc]
	p.advance(w.glueDt, AdvGlue, &w.glue)
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
	p.advance(p.world.cfg.Net.Overhead, AdvMPIOverhead, &zeroVec)
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

func ceilLog2(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// Barrier synchronizes all ranks. Like every collective it reports false
// when the rank parked waiting for the others.
func (p *Proc) Barrier() bool { return p.collective("mpi_barrier", -1, 0) }

// Bcast broadcasts bytes from root.
func (p *Proc) Bcast(root int, bytes float64) bool { return p.collective("mpi_bcast", root, bytes) }

// Reduce reduces bytes to root.
func (p *Proc) Reduce(root int, bytes float64) bool { return p.collective("mpi_reduce", root, bytes) }

// Allreduce reduces bytes to all ranks.
func (p *Proc) Allreduce(bytes float64) bool { return p.collective("mpi_allreduce", -1, bytes) }

// Alltoall exchanges bytes with every rank.
func (p *Proc) Alltoall(bytes float64) bool { return p.collective("mpi_alltoall", -1, bytes) }

// Allgather gathers bytes from every rank to all.
func (p *Proc) Allgather(bytes float64) bool { return p.collective("mpi_allgather", -1, bytes) }
