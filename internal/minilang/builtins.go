package minilang

// BuiltinKind classifies builtins for static analysis and the interpreter.
type BuiltinKind int

// Builtin kinds.
const (
	// BuiltinQuery is a side-effect-free runtime query (mpi_rank, mpi_size).
	BuiltinQuery BuiltinKind = iota
	// BuiltinComm is an MPI communication operation. These become MPI
	// vertices in the Program Structure Graph and are never contracted away.
	BuiltinComm
	// BuiltinCompute is the compute(flops, loads, stores, ws) intrinsic that
	// advances the machine model. It becomes (part of) a Comp vertex.
	BuiltinCompute
	// BuiltinMath is a pure math function.
	BuiltinMath
	// BuiltinAlloc allocates an array value.
	BuiltinAlloc
	// BuiltinIO is print.
	BuiltinIO
)

// Builtin describes one MiniMP builtin function.
type Builtin struct {
	Name  string
	Kind  BuiltinKind
	Arity int // -1 means variadic
	// Collective is true for MPI collectives; the backtracking algorithm
	// terminates at collective vertices (paper Algorithm 1).
	Collective bool
	// NonBlocking marks operations completed later by mpi_wait/mpi_waitall.
	NonBlocking bool
}

// Builtins is the table of all MiniMP builtins, keyed by name.
var Builtins = map[string]*Builtin{
	// Runtime queries.
	"mpi_rank": {Name: "mpi_rank", Kind: BuiltinQuery, Arity: 0},
	"mpi_size": {Name: "mpi_size", Kind: BuiltinQuery, Arity: 0},

	// Point-to-point communication: (peer, tag, bytes).
	"mpi_send":  {Name: "mpi_send", Kind: BuiltinComm, Arity: 3},
	"mpi_recv":  {Name: "mpi_recv", Kind: BuiltinComm, Arity: 3},
	"mpi_isend": {Name: "mpi_isend", Kind: BuiltinComm, Arity: 3, NonBlocking: true},
	"mpi_irecv": {Name: "mpi_irecv", Kind: BuiltinComm, Arity: 3, NonBlocking: true},
	// Wildcard-source receives: (tag, bytes); source resolved at completion
	// (exercises the "source or tag is uncertain" path of paper Fig. 5).
	"mpi_recv_any":  {Name: "mpi_recv_any", Kind: BuiltinComm, Arity: 2},
	"mpi_irecv_any": {Name: "mpi_irecv_any", Kind: BuiltinComm, Arity: 2, NonBlocking: true},
	// Completion of non-blocking operations.
	"mpi_wait":    {Name: "mpi_wait", Kind: BuiltinComm, Arity: 1},
	"mpi_waitall": {Name: "mpi_waitall", Kind: BuiltinComm, Arity: 0},
	// Combined exchange: (dest, stag, sbytes, src, rtag, rbytes).
	"mpi_sendrecv": {Name: "mpi_sendrecv", Kind: BuiltinComm, Arity: 6},

	// Collectives.
	"mpi_barrier":   {Name: "mpi_barrier", Kind: BuiltinComm, Arity: 0, Collective: true},
	"mpi_bcast":     {Name: "mpi_bcast", Kind: BuiltinComm, Arity: 2, Collective: true},  // (root, bytes)
	"mpi_reduce":    {Name: "mpi_reduce", Kind: BuiltinComm, Arity: 2, Collective: true}, // (root, bytes)
	"mpi_allreduce": {Name: "mpi_allreduce", Kind: BuiltinComm, Arity: 1, Collective: true},
	"mpi_alltoall":  {Name: "mpi_alltoall", Kind: BuiltinComm, Arity: 1, Collective: true},
	"mpi_allgather": {Name: "mpi_allgather", Kind: BuiltinComm, Arity: 1, Collective: true},

	// Computation intrinsic: compute(flops, loads, stores, workingSetBytes).
	"compute": {Name: "compute", Kind: BuiltinCompute, Arity: 4},

	// Arrays.
	"alloc": {Name: "alloc", Kind: BuiltinAlloc, Arity: 1},
	"len":   {Name: "len", Kind: BuiltinMath, Arity: 1},

	// Math.
	"sqrt":  {Name: "sqrt", Kind: BuiltinMath, Arity: 1},
	"log":   {Name: "log", Kind: BuiltinMath, Arity: 1},
	"log2":  {Name: "log2", Kind: BuiltinMath, Arity: 1},
	"exp":   {Name: "exp", Kind: BuiltinMath, Arity: 1},
	"floor": {Name: "floor", Kind: BuiltinMath, Arity: 1},
	"ceil":  {Name: "ceil", Kind: BuiltinMath, Arity: 1},
	"abs":   {Name: "abs", Kind: BuiltinMath, Arity: 1},
	"min":   {Name: "min", Kind: BuiltinMath, Arity: 2},
	"max":   {Name: "max", Kind: BuiltinMath, Arity: 2},
	"pow":   {Name: "pow", Kind: BuiltinMath, Arity: 2},
	// rand() returns a deterministic per-rank pseudo-random value in [0,1).
	"rand": {Name: "rand", Kind: BuiltinMath, Arity: 0},

	// Output.
	"print": {Name: "print", Kind: BuiltinIO, Arity: -1},
}

// IsCollective reports whether the call is an MPI collective.
func IsCollective(c *CallExpr) bool {
	return c.Builtin != nil && c.Builtin.Collective
}
