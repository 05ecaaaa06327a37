package vm_test

// FuzzVMvsInterp is the differential fuzz target: it generates a seeded
// synthetic MiniMP workload (the same generator that builds the detection
// accuracy corpus), executes it on the tree-walking interpreter and on
// the bytecode VM over raw simulator worlds with a recording hook, and
// asserts the two executions produce identical per-rank event streams and
// final virtual clocks. The interpreter is the oracle; any stream
// divergence is a VM bug.
//
// The generator writes numbers only, so a third input splices value kinds
// into the generated main (valueProbe): arrays, function references and
// NaN arithmetic — what the VM's one-word register boxes and the oracle's
// struct does not. Their effects reach the event streams as byte counts and
// branches, and print(), which both engines must write byte for byte. The
// second input's high bit splices one statement more that fails the run
// (faultProbe) where a fused instruction takes the oracle's steps: a
// reference compared by a branch or added to a literal, a literal zero
// divisor. Both engines must then fail with the same text.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/synth"
	"scalana/internal/vm"
	"scalana/internal/vm/difftest/interp"
)

// recorder copies every event out of the simulator's reusable scratch
// storage (the Event pointer is only valid during the call). An Event
// holds no pointer, so whole streams compare with reflect.DeepEqual. It
// also keeps the context of every advance, as the advance at which each
// context began: what a sample taken anywhere would be attributed to.
type recorder struct {
	events []mpisim.Event
	ctxs   []ctxFrom
	n      int // advances seen
}

// ctxFrom is a context and the advance it began at.
type ctxFrom struct {
	advance int
	ctx     mpisim.Ctx
}

var _ mpisim.AdvanceObserver = (*recorder)(nil)

func (r *recorder) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx mpisim.Ctx, pmu machine.Vec) float64 {
	if len(r.ctxs) == 0 || r.ctxs[len(r.ctxs)-1].ctx != ctx {
		r.ctxs = append(r.ctxs, ctxFrom{r.n, ctx})
	}
	r.n++
	return 0
}

func (r *recorder) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	r.events = append(r.events, *ev)
	return 0
}

// Value kinds a fuzz input's third byte selects; its upper five bits are n.
const (
	probeArrays = 1 << iota
	probeFnRefs
	probeNaNs
)

// valueProbe returns src with statements of the selected kinds at the top
// of main and the functions they call appended.
func valueProbe(src string, values uint8) string {
	n := int(values >> 3)
	var stmts strings.Builder
	if values&probeArrays != 0 {
		fmt.Fprintf(&stmts, "\tvar vpA = vpFill(alloc(%d), %d);\n\tvar vpB = vpA;\n\tvpB[0] = len(vpB);\n"+
			"\tmpi_allreduce(8 + vpA[0] + vpA[%d]);\n\tprint(vpA, alloc(0), vpA[%d]);\n", n+1, n, n, n)
	}
	if values&probeFnRefs != 0 {
		fmt.Fprintf(&stmts, "\tvar vpF = &vpTwice;\n\tif (mpi_rank() %% 2 == %d) { vpF = vpSame(&vpThrice); }\n"+
			"\tmpi_allreduce(8 * vpF(%d));\n\tprint(vpF, vpSame(vpF));\n", n%2, n+1)
	}
	if values&probeNaNs != 0 {
		fmt.Fprintf(&stmts, "\tvar vpX = vpSame(sqrt(0 - 1 - %d) * (%d - log(0 - 1)));\n"+
			"\tif (vpX == vpX) { mpi_barrier(); } else { mpi_allreduce(16); }\n"+
			"\tif (vpX + 1 != vpX && !(vpX < 0) && vpX) { mpi_allreduce(24); }\n\tprint(vpX, -vpX, 0 * exp(1000));\n", n, n)
	}
	if stmts.Len() == 0 {
		return src
	}
	return strings.Replace(src, "func main() {\n", "func main() {\n"+stmts.String(), 1) + `
func vpFill(a, n) {
	for (var i = 0; i < len(a); i = i + 1) { a[i] = i * n; }
	return a;
}
func vpSame(v) { return v; }
func vpTwice(n) { return 2 * n; }
func vpThrice(n) { return 3 * n; }
`
}

// faultProbes are the statements faultProbe picks from.
var faultProbes = [...]string{
	"var vpG = &vpSame;\n\tif (vpG < 1) { mpi_barrier(); }",
	"for (var vpI = 0; vpI < &vpSame; vpI = vpI + 1) { mpi_barrier(); }",
	"var vpS = 1 + &vpTwice;",
	"var vpD = mpi_rank() / 0;",
	"var vpM = mpi_size() % 0;",
}

// faultProbe returns src, already through valueProbe with values, with
// faultProbes[n % 5] after the probe statements, n being values' upper
// five bits, and the functions they call appended if valueProbe did not.
func faultProbe(src string, values uint8) string {
	stmt := "\t" + faultProbes[int(values>>3)%len(faultProbes)] + "\n"
	if values&(probeArrays|probeFnRefs|probeNaNs) == 0 {
		src += "\nfunc vpSame(v) { return v; }\nfunc vpTwice(n) { return 2 * n; }\n"
	}
	return strings.Replace(src, "func main() {\n", "func main() {\n"+stmt, 1)
}

// runRecorded executes the program once on a fresh world and returns the
// per-rank recorders, final clocks and print() output.
func runRecorded(prog *minilang.Program, graph *psg.Graph, np int, useInterp bool) ([]*recorder, []float64, []byte, error) {
	var stdout bytes.Buffer
	recs := make([]*recorder, np)
	world := mpisim.NewWorld(mpisim.Config{
		NP:   np,
		Seed: 1,
		HookFactory: func(rank int) mpisim.Hook {
			recs[rank] = &recorder{}
			return recs[rank]
		},
	})
	var res mpisim.RunResult
	var err error
	if useInterp {
		r := interp.NewRunner(prog, graph)
		r.Stdout = &stdout
		res, err = world.RunBlocking(r.Execute)
	} else {
		var vp *vm.Program
		if vp, err = vm.Compile(prog, graph); err != nil {
			return nil, nil, nil, err
		}
		if err = vm.VerifyLowering(vp); err != nil {
			return nil, nil, nil, err
		}
		r := vm.NewRunner(vp)
		r.Stdout = &stdout
		res, err = world.Run(r.Stepper(np))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return recs, res.Clocks, stdout.Bytes(), nil
}

func FuzzVMvsInterp(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(6), uint8(0))
	f.Add(int64(3), uint8(8), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0))
	f.Add(int64(1234567), uint8(2), uint8(0))
	f.Add(int64(5), uint8(3), uint8(probeArrays|probeFnRefs|probeNaNs|9<<3))
	f.Add(int64(6), uint8(0x80|4), uint8(probeNaNs|2<<3))
	f.Fuzz(func(t *testing.T, seed int64, npRaw, values uint8) {
		corpus, err := synth.Generate(synth.GenConfig{Seed: seed, Cases: 1})
		if err != nil {
			t.Skip() // generator rejects the seed; nothing to compare
		}
		app := corpus.Cases[0].App()
		np := 2 + int(npRaw&0x7F)%7
		if np < app.MinNP {
			np = app.MinNP
		}
		src, faults := valueProbe(app.Source, values), npRaw&0x80 != 0
		if faults {
			src = faultProbe(src, values)
		}
		prog, err := minilang.Parse(app.File, src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v", err)
		}
		graph, err := psg.Build(prog, psg.DefaultOptions())
		if err != nil {
			t.Fatalf("generated program does not build a PSG: %v", err)
		}

		vmRecs, vmClocks, vmOut, vmErr := runRecorded(prog, graph, np, false)
		inRecs, inClocks, inOut, inErr := runRecorded(prog, graph, np, true)
		// Failed runs abort ranks at racy points, so streams are only
		// comparable for successful runs; both engines must still agree
		// on whether the run fails.
		if (vmErr != nil) != (inErr != nil) {
			t.Fatalf("engines disagree on failure: vm err=%v, interp err=%v", vmErr, inErr)
		}
		if faults && (vmErr == nil || vmErr.Error() != inErr.Error()) {
			t.Fatalf("the fault probe: vm err=%v, interp err=%v, want one error", vmErr, inErr)
		}
		if vmErr != nil {
			return
		}
		if values&(probeArrays|probeFnRefs|probeNaNs) != 0 && len(vmOut) == 0 {
			t.Fatalf("the value probe (%#x) printed nothing", values)
		}
		if !bytes.Equal(vmOut, inOut) {
			t.Fatalf("print() output diverges:\nvm:     %q\ninterp: %q", vmOut, inOut)
		}
		if !reflect.DeepEqual(vmClocks, inClocks) {
			t.Fatalf("final clocks diverge:\nvm:     %v\ninterp: %v", vmClocks, inClocks)
		}
		for r := 0; r < np; r++ {
			vmEvs, inEvs := vmRecs[r].events, inRecs[r].events
			if len(vmEvs) != len(inEvs) {
				t.Fatalf("rank %d: vm emitted %d events, interp %d", r, len(vmEvs), len(inEvs))
			}
			for i := range vmEvs {
				if vmEvs[i] != inEvs[i] {
					t.Fatalf("rank %d event %d diverges:\nvm:     %+v\ninterp: %+v", r, i, vmEvs[i], inEvs[i])
				}
			}
			if vm, in := vmRecs[r], inRecs[r]; vm.n != in.n || !reflect.DeepEqual(vm.ctxs, in.ctxs) {
				t.Fatalf("rank %d: the contexts of the advances diverge:\nvm:     %d advances, %v\ninterp: %d advances, %v", r, vm.n, vm.ctxs, in.n, in.ctxs)
			}
		}
	})
}
