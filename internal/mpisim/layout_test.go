package mpisim_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
)

// pointerField returns the path of the first field of t that holds a
// pointer, a string or an interface — anything the garbage collector
// scans and a copy pays a write barrier for — or "" when t has none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return ""
	}
	return t.Kind().String()
}

// TestRankStateHoldsNoPointer: an event, an in-flight message, a
// collective arrival, a communication record and a dependence edge carry
// their attribution context as a VID and their operation as an mpisim.Op,
// so none of them holds a pointer. On amd64 their sizes are pinned.
func TestRankStateHoldsNoPointer(t *testing.T) {
	for _, tc := range []struct {
		v     any
		amd64 uintptr
	}{
		{mpisim.Event{}, 80},
		{mpisim.SendInfo{}, 32},
		{mpisim.Arrival{}, 16},
		{prof.CommRecord{}, 64},
		{ppg.DepEdge{}, 40},
	} {
		typ := reflect.TypeOf(tc.v)
		if p := pointerField(typ); p != "" {
			t.Errorf("%v holds a pointer at %s", typ, p)
		}
		if runtime.GOARCH == "amd64" && typ.Size() != tc.amd64 {
			t.Errorf("%v is %d B, want %d", typ, typ.Size(), tc.amd64)
		}
	}
}

// TestOpsAreInNameOrder: each Op spells its builtin, comparing two Ops
// orders them as comparing their names does (or the canonical record
// order and the edge order of a PPG would change), and every name looks
// up its own Op.
func TestOpsAreInNameOrder(t *testing.T) {
	ops := []mpisim.Op{
		mpisim.OpNone, mpisim.OpAllgather, mpisim.OpAllreduce, mpisim.OpAlltoall,
		mpisim.OpBarrier, mpisim.OpBcast, mpisim.OpIrecv, mpisim.OpIrecvAny,
		mpisim.OpIsend, mpisim.OpRecv, mpisim.OpRecvAny, mpisim.OpReduce,
		mpisim.OpSend, mpisim.OpSendrecv, mpisim.OpWait, mpisim.OpWaitall,
	}
	names := []string{
		"", "mpi_allgather", "mpi_allreduce", "mpi_alltoall",
		"mpi_barrier", "mpi_bcast", "mpi_irecv", "mpi_irecv_any",
		"mpi_isend", "mpi_recv", "mpi_recv_any", "mpi_reduce",
		"mpi_send", "mpi_sendrecv", "mpi_wait", "mpi_waitall",
	}
	if !slices.IsSorted(names) {
		t.Fatalf("the expected names %q are not sorted", names)
	}
	for i, op := range ops {
		if op.String() != names[i] || (i > 0 && !(ops[i-1] < op)) {
			t.Errorf("op %d spells %q, want %q, in ascending order", op, op, names[i])
		}
		if got, ok := mpisim.OpNamed(names[i]); !ok || got != op {
			t.Errorf("OpNamed(%q) = %v, %v; want %v", names[i], got, ok, op)
		}
	}
	if _, ok := mpisim.OpNamed("mpi_foo"); ok {
		t.Error(`OpNamed("mpi_foo") found an op`)
	}
}
