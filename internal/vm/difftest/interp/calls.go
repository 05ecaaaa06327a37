package interp

import (
	"fmt"
	"math"

	"scalana/internal/minilang"
	"scalana/internal/vm"
)

func (ex *exec) evalCall(call *minilang.CallExpr) Value {
	if call.Builtin != nil {
		return ex.evalBuiltin(call)
	}
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		args[i] = ex.eval(a)
	}
	inst := ex.top().inst

	if call.Indirect {
		fnv := ex.lookup(call.Name, call.Pos())
		if fnv.Fn == "" {
			panic(fmt.Sprintf("%s: %q does not hold a function reference", call.Pos(), call.Name))
		}
		target := ex.r.Prog.Func(fnv.Fn)
		if target == nil {
			panic(fmt.Sprintf("%s: indirect call to unknown function %q", call.Pos(), fnv.Fn))
		}
		child, err := ex.r.Graph.ResolveIndirect(inst, call.ID(), fnv.Fn)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", call.Pos(), err))
		}
		if ex.r.OnIndirect != nil {
			ex.r.OnIndirect(ex.p.Rank, inst, call.ID(), fnv.Fn)
		}
		ex.checkDepth(call, target)
		return ex.callFunction(child, target, args)
	}

	target := ex.r.Prog.Func(call.Name)
	child := inst.CalleeInstance(call.ID())
	if child == nil {
		panic(fmt.Sprintf("%s: no PSG instance for call to %q (site %d in %s)", call.Pos(), call.Name, call.ID(), inst.Path))
	}
	ex.checkDepth(call, target)
	return ex.callFunction(child, target, args)
}

// checkDepth refuses a call that would make the stack deeper than the
// VM's limit, with the VM's message, and charges the call to the step
// budget as the VM does.
func (ex *exec) checkDepth(call *minilang.CallExpr, target *minilang.FuncDecl) {
	if len(ex.frames) >= vm.MaxCallDepth {
		panic(fmt.Sprintf("%s: call to %q exceeds the call depth limit of %d", call.Pos(), target.Name, vm.MaxCallDepth))
	}
	ex.spend(call.Pos())
}

func (ex *exec) evalBuiltin(call *minilang.CallExpr) Value {
	b := call.Builtin
	switch b.Kind {
	case minilang.BuiltinIO:
		return ex.evalPrint(call)
	case minilang.BuiltinComm:
		return ex.evalMPI(call)
	}

	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		args[i] = ex.eval(a)
	}
	n := func(i int) float64 { return num(args[i], call.Pos(), b.Name+" argument") }

	switch b.Kind {
	case minilang.BuiltinQuery:
		switch b.Name {
		case "mpi_rank":
			return Value{Num: float64(ex.p.Rank)}
		case "mpi_size":
			return Value{Num: float64(ex.p.NP())}
		}
	case minilang.BuiltinCompute:
		// Attribute the work to the compute call's own Comp vertex.
		ex.setCtx(call)
		ex.p.Compute(n(0), n(1), n(2), n(3))
		return Value{}
	case minilang.BuiltinAlloc:
		ln := n(0)
		if ln <= -1 {
			panic(fmt.Sprintf("%s: alloc of negative length %.0f", call.Pos(), math.Trunc(ln)))
		}
		// Every array costs its elements and one more, against the VM's
		// budget; a NaN or +Inf length is over any budget.
		if ex.elems += math.Trunc(ln) + 1; !(ex.elems <= vm.MaxArrayElems) {
			panic(fmt.Sprintf("%s: alloc of %g elements exceeds what is left of the rank's array budget of %d", call.Pos(), ln, vm.MaxArrayElems))
		}
		return Value{Arr: make([]float64, int(ln))}
	case minilang.BuiltinMath:
		switch b.Name {
		case "len":
			if args[0].Arr == nil {
				panic(fmt.Sprintf("%s: len of non-array", call.Pos()))
			}
			return Value{Num: float64(len(args[0].Arr))}
		case "sqrt":
			return Value{Num: math.Sqrt(n(0))}
		case "log":
			return Value{Num: math.Log(n(0))}
		case "log2":
			return Value{Num: math.Log2(n(0))}
		case "exp":
			return Value{Num: math.Exp(n(0))}
		case "floor":
			return Value{Num: math.Floor(n(0))}
		case "ceil":
			return Value{Num: math.Ceil(n(0))}
		case "abs":
			return Value{Num: math.Abs(n(0))}
		case "min":
			return Value{Num: math.Min(n(0), n(1))}
		case "max":
			return Value{Num: math.Max(n(0), n(1))}
		case "pow":
			return Value{Num: math.Pow(n(0), n(1))}
		case "rand":
			return Value{Num: ex.p.Rand()}
		}
	}
	panic(fmt.Sprintf("interp: unhandled builtin %q", b.Name))
}

func (ex *exec) evalMPI(call *minilang.CallExpr) Value {
	// Evaluate arguments with the enclosing context, then point the
	// process at the MPI vertex for the operation itself, so waiting time
	// lands on the MPI vertex exactly as a PAPI sample inside MPI would.
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		args[i] = ex.eval(a)
	}
	n := func(i int) float64 { return num(args[i], call.Pos(), call.Name+" argument") }
	ni := func(i int) int { return int(n(i)) }
	ex.setCtx(call)
	p := ex.p

	switch call.Name {
	case "mpi_send":
		p.Send(ni(0), ni(1), n(2))
	case "mpi_recv":
		p.Recv(ni(0), ni(1), n(2))
	case "mpi_recv_any":
		return Value{Num: float64(p.RecvAny(ni(0), n(1)))}
	case "mpi_isend":
		return Value{Num: float64(p.Isend(ni(0), ni(1), n(2)).ID())}
	case "mpi_irecv":
		return Value{Num: float64(p.Irecv(ni(0), ni(1), n(2)).ID())}
	case "mpi_irecv_any":
		return Value{Num: float64(p.IrecvAny(ni(0), n(1)).ID())}
	case "mpi_wait":
		p.Wait(ni(0))
	case "mpi_waitall":
		p.Waitall()
	case "mpi_sendrecv":
		p.Sendrecv(ni(0), ni(1), n(2), ni(3), ni(4), n(5))
	case "mpi_barrier":
		p.Barrier()
	case "mpi_bcast":
		p.Bcast(ni(0), n(1))
	case "mpi_reduce":
		p.Reduce(ni(0), n(1))
	case "mpi_allreduce":
		p.Allreduce(n(0))
	case "mpi_alltoall":
		p.Alltoall(n(0))
	case "mpi_allgather":
		p.Allgather(n(0))
	default:
		panic(fmt.Sprintf("interp: unhandled MPI builtin %q", call.Name))
	}
	return Value{}
}

func (ex *exec) evalPrint(call *minilang.CallExpr) Value {
	if ex.r.Stdout == nil {
		// Still evaluate arguments for their side effects.
		for _, a := range call.Args {
			if _, isStr := a.(*minilang.StrLit); !isStr {
				ex.eval(a)
			}
		}
		return Value{}
	}
	out := fmt.Sprintf("[rank %d]", ex.p.Rank)
	for _, a := range call.Args {
		if s, isStr := a.(*minilang.StrLit); isStr {
			out += " " + s.Value
			continue
		}
		out += " " + ex.eval(a).String()
	}
	fmt.Fprintln(ex.r.Stdout, out)
	return Value{}
}
