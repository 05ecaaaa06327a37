// Package mpisim is a deterministic message-passing runtime simulator.
//
// The ScalAna paper runs MPI applications on Tianhe-2 and an InfiniBand
// cluster; offline pure-Go has neither MPI nor an interconnect, so this
// package substitutes a discrete-event simulator: every rank has its own
// virtual clock and PMU (internal/machine), and World.Run is one loop, on
// its caller's goroutine, that steps one rank at a time, picked from a
// min-heap ordered by virtual clock (rank index breaks ties). A rank is a
// resumable value, not a goroutine: at a blocking point — an unmatched
// receive, a wait on a pending request, a collective still missing
// participants — the operation records its continuation in the Proc and
// returns to the loop, which completes it once a peer has made that
// possible. Point-to-point messages match by sequence number per
// (src,dst,tag) channel, collectives synchronize on arrival of all ranks,
// and completion times follow a LogGP-style cost model. Reports are
// byte-identical across runs by construction: nothing a host thread does
// influences matching or timing, and deadlocks are detected exactly — the
// moment no rank can progress, the run fails with each blocked rank's
// pending operation.
//
// Crucially for the paper's subject matter, the simulator produces *wait
// states*: a receive that blocks on a late sender, or a collective that
// waits for a straggler, records how long it waited and on whom — exactly
// the inter-process dependence that ScalAna's backtracking walks.
//
// A measurement tool attaches as one Hook a rank. The hook hears of each
// completed MPI operation. Virtual time reaches a hook one of two ways: a
// TimerSampler names a period and is called when the rank's clock crosses
// a multiple of it, with the PMU counters accrued since the last crossing
// (between samples an advance calls nothing), and an AdvanceObserver is
// called on every advance. The overhead a callback returns is charged to
// the rank as virtual time.
package mpisim

import "scalana/internal/machine"

// AnySource is the wildcard source rank for mpi_recv_any.
const AnySource = -1

// Ctx is an attribution context: the PSG vertex ID (psg.VID) of the
// code a rank is executing. The simulator never looks inside it; the VM
// sets it and the tools read it as a VID. Its zero is the root vertex
// (psg.VIDRoot), the context of a rank that has entered no vertex yet.
type Ctx uint32

// NoCtx is "no context": the DepCtx of an event that depended on no
// remote rank. It converts to psg.VIDNone.
const NoCtx = ^Ctx(0)

// Op is a MiniMP MPI builtin. The builtins are numbered in the
// alphabetical order of their names, so comparing two Ops orders them as
// comparing their names does.
type Op uint8

// The MPI operations, OpNone ("") first.
const (
	OpNone Op = iota
	OpAllgather
	OpAllreduce
	OpAlltoall
	OpBarrier
	OpBcast
	OpIrecv
	OpIrecvAny
	OpIsend
	OpRecv
	OpRecvAny
	OpReduce
	OpSend
	OpSendrecv
	OpWait
	OpWaitall
	NumOps
)

var opNames = [NumOps]string{
	"", "mpi_allgather", "mpi_allreduce", "mpi_alltoall", "mpi_barrier",
	"mpi_bcast", "mpi_irecv", "mpi_irecv_any", "mpi_isend", "mpi_recv",
	"mpi_recv_any", "mpi_reduce", "mpi_send", "mpi_sendrecv", "mpi_wait",
	"mpi_waitall",
}

// String returns the builtin's name ("" for OpNone), as the wire format
// spells it.
func (o Op) String() string { return opNames[o] }

// MarshalText encodes o as its name, so a record holding an Op encodes
// as one that held the name did.
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// OpNamed returns the Op a builtin name spells ("" is OpNone), and false
// for a name that is not an MPI builtin. It is a scan of the table, so a
// caller may pass string(b) of a byte slice without allocating.
func OpNamed(name string) (Op, bool) {
	for i := range opNames {
		if opNames[i] == name {
			return Op(i), true
		}
	}
	return OpNone, false
}

// Event describes one completed MPI operation on one rank. Tool hooks
// (the ScalAna PMPI layer, the tracer, the profiler) receive every event.
type Event struct {
	Op   Op  // the MiniMP builtin (mpi_send, mpi_allreduce, ...)
	Peer int // matched peer rank; -1 for collectives/none
	Tag  int
	// Bytes is the message payload (per peer for collectives; for a
	// sendrecv, both directions together; for a waitall, every receive
	// it completed).
	Bytes float64
	// TEnd is the virtual time the operation completed at.
	TEnd float64
	// Wait is the blocked time spent inside the operation waiting for
	// remote progress. Backtracking prunes communication dependence edges
	// with no waiting (paper §IV-B).
	Wait float64
	// DepRank is the rank whose lateness this operation waited on: the
	// matched sender for receives, the last-arriving rank for collectives.
	// -1 when the operation did not depend on a remote rank.
	DepRank int
	// DepCtx is the peer's attribution context at the operation that
	// satisfied the dependence; NoCtx when DepRank is -1.
	DepCtx Ctx
	// Ctx is the local attribution context when the event completed.
	Ctx Ctx
	// Collective marks collective operations.
	Collective bool
	// ReqID is the request handle for isend/irecv/wait events (0 if none);
	// the ScalAna PMPI layer's request converter remembers a posted
	// receive under it until the wait that completes it (paper Fig. 5).
	ReqID int
}

// AdvanceKind classifies virtual-time advances for hook attribution.
type AdvanceKind int

// Advance kinds.
const (
	// AdvCompute is application computation (machine model time).
	AdvCompute AdvanceKind = iota
	// AdvGlue is interpreter/program bookkeeping overhead.
	AdvGlue
	// AdvMPIOverhead is the CPU cost of entering an MPI operation.
	AdvMPIOverhead
	// AdvTransfer is local message copy cost.
	AdvTransfer
	// AdvWait is blocked time inside an MPI operation.
	AdvWait
	// AdvPerturb is virtual overhead charged by a measurement tool.
	AdvPerturb
)

func (k AdvanceKind) String() string {
	switch k {
	case AdvCompute:
		return "compute"
	case AdvGlue:
		return "glue"
	case AdvMPIOverhead:
		return "mpi-overhead"
	case AdvTransfer:
		return "transfer"
	case AdvWait:
		return "wait"
	case AdvPerturb:
		return "perturb"
	}
	return "advance"
}

// Hook observes one rank's execution: it is told of every completed MPI
// operation. A rank has at most one hook and it is the rank's own, so
// implementations need no internal locking. A hook that also wants
// virtual time implements one or both of the optional interfaces below —
// TimerSampler for fixed-period samples, AdvanceObserver to see every
// advance (it is called first when an advance also fires the timer).
//
// Every callback returns the virtual measurement overhead (seconds) the
// tool wants charged for the observation — the per-sample interrupt cost
// or the per-record logging cost. The simulator applies the charge as an
// AdvPerturb advance after the callback returns; overhead returned while
// observing an AdvPerturb advance is ignored to keep the charge finite.
type Hook interface {
	// MPIEvent is called after each MPI operation completes. The Event
	// points into per-rank scratch storage that is reused by the next
	// operation: it is valid only for the duration of the call, and
	// implementations that keep event data must copy the fields out.
	MPIEvent(p *Proc, ev *Event) (overhead float64)
}

// TimerSampler is a Hook driven by the rank's sampling timer, the way
// PAPI overflow sampling drives a profiler: the program runs unobserved
// between interrupts. The rank owns the clock and the PMU counters, so it
// owns the timer, and its one hook is the timer's only sampler.
type TimerSampler interface {
	Hook
	// SamplePeriod returns the timer period in virtual seconds (positive).
	// It is called once, when the world is built.
	SamplePeriod() float64
	// Sample is called when an advance has carried the rank's clock across
	// one or more multiples of the period: crossings is how many, p.Ctx is
	// the attribution context the interrupt lands in, and *pmu holds the
	// PMU counter deltas the rank accrued since the previous Sample. The
	// rank clears *pmu when Sample returns; copy what you keep.
	Sample(p *Proc, crossings int64, period float64, pmu *machine.Vec) (overhead float64)
}

// AdvanceObserver is a Hook that is called for every virtual-time advance
// on its rank — what a tracer instrumenting region transitions needs, and
// what a sampler does not. It costs an interface call per executed
// statement.
type AdvanceObserver interface {
	Hook
	// Advance is called after the clock moved from from to to. pmu holds
	// the PMU counter deltas accrued during the advance: zero for every
	// kind but AdvCompute and AdvGlue.
	Advance(p *Proc, from, to float64, kind AdvanceKind, ctx Ctx, pmu machine.Vec) (overhead float64)
}
