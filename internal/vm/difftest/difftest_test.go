package difftest

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"scalana/internal/mpisim"
	"scalana/internal/prof"
	"scalana/internal/synth"
	"scalana/internal/vm/difftest/interp"

	scalana "scalana"
)

// TestAppsByteIdentical holds the VM to the interpreter oracle on every
// registered workload: the NPB kernels, the three case-study apps with
// their -opt variants, and the demo programs.
func TestAppsByteIdentical(t *testing.T) {
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := DiffApp(app, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSynthCorpusByteIdentical holds the VM to the oracle on the full
// seeded synthetic-defect corpus (the same 25-case corpus the detection
// accuracy harness evaluates).
func TestSynthCorpusByteIdentical(t *testing.T) {
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Cases {
		app := c.App()
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := DiffApp(app, Config{Seed: corpus.Seed}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunsNeverGrowTheGraph is the other half of psg's immutability
// invariant: one compiled graph, executed by both engines at two scales
// at once, has the same vertices, VIDs and keys afterwards. CI runs this
// package under -race, so a run that wrote to the shared graph — or a
// read that needed a lock — would also be reported there.
func TestRunsNeverGrowTheGraph(t *testing.T) {
	apps := make([]*scalana.App, 0, 64)
	for _, name := range scalana.AppNames() {
		apps = append(apps, scalana.GetApp(name))
	}
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Cases {
		apps = append(apps, c.App())
	}
	for _, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			prog, graph, err := scalana.Compile(app)
			if err != nil {
				t.Fatal(err)
			}
			vertices, vids := len(graph.Vertices), graph.NumVIDs()
			keys := append([]string(nil), graph.Keys()...)

			var wg sync.WaitGroup
			for _, np := range (Config{}).scales(app) {
				for _, useInterp := range []bool{false, true} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, _, err := profileOnce(prog, graph, app, np, prof.DefaultConfig(), corpus.Seed, useInterp); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			wg.Wait()

			if len(graph.Vertices) != vertices || graph.NumVIDs() != vids || !slices.Equal(graph.Keys(), keys) {
				t.Errorf("running %s changed its graph: %d -> %d vertices, %d -> %d VIDs, keys equal: %v",
					app.Name, vertices, len(graph.Vertices), vids, graph.NumVIDs(), slices.Equal(graph.Keys(), keys))
			}
		})
	}
}

// TestNonFiniteOperandFailsTheRank: a compute operand or an MPI byte count
// that is negative, NaN or infinite fails its rank with an error naming
// the operation, the same on both engines, bare and profiled. Before, a
// NaN operand dereferenced a bare rank's nil sampler, and on a profiled
// rank it turned every clock into NaN.
func TestNonFiniteOperandFailsTheRank(t *testing.T) {
	const finite = "every operand must be finite and non-negative"
	const size = "a byte count must be finite and non-negative"
	cases := []struct{ body, want string }{
		{"compute(sqrt(0 - 1), 1, 1, 64);", "machine: compute(NaN, 1, 1, 64): " + finite},
		{"compute(exp(1000), 1, 1, 64);", "machine: compute(+Inf, 1, 1, 64): " + finite},
		{"compute(1, 0 - 1, 1, 64);", "machine: compute(1, -1, 1, 64): " + finite},
		{"compute(1, 1, 1, 0 - exp(1000));", "machine: compute(1, 1, 1, -Inf): " + finite},
		{"compute(1, 1, 1, sqrt(0 - 1));", "machine: compute(1, 1, 1, NaN): " + finite},
		{"if (mpi_rank() == 0) { mpi_send(1, 0, sqrt(0 - 1)); } else { mpi_recv(0, 0, 8); }", "mpisim: rank 0: mpi_send of NaN bytes: " + size},
		{"if (mpi_rank() == 0) { mpi_send(1, 0, 0 - 100); } else { mpi_recv(0, 0, 8); }", "mpisim: rank 0: mpi_send of -100 bytes: " + size},
		{"if (mpi_rank() == 1) { mpi_send(0, 0, 8); } else { mpi_recv(1, 0, exp(1000)); }", "mpisim: rank 0: mpi_recv of +Inf bytes: " + size},
		{"mpi_wait(mpi_isend(1 - mpi_rank(), 0, 0 - 8));", "mpisim: rank 0: mpi_isend of -8 bytes: " + size},
		{"mpi_allreduce(sqrt(0 - 1));", "mpisim: rank 0: mpi_allreduce of NaN bytes: " + size},
		{"mpi_allreduce(0 - 100);", "mpisim: rank 0: mpi_allreduce of -100 bytes: " + size},
		{"mpi_bcast(0, exp(1000));", "mpisim: rank 0: mpi_bcast of +Inf bytes: " + size},
	}
	for i, c := range cases {
		app := &scalana.App{Name: fmt.Sprintf("bad%d", i), File: "bad.mp", MinNP: 1, Source: "func main() { " + c.body + " }\n"}
		prog, graph, err := scalana.Compile(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range []string{"", "scalana"} {
			for _, oracle := range []bool{false, true} {
				var err error
				if tool == "" && oracle { // a tool run's lifecycle needs a tool
					_, err = mpisim.NewWorld(mpisim.Config{NP: 2}).RunBlocking(interp.NewRunner(prog, graph).Execute)
				} else {
					_, _, err = run(prog, graph, scalana.RunConfig{App: app, NP: 2, ToolName: tool}, oracle)
				}
				if want := "rank 0: " + c.want; err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("%s (tool %q, interp %v): error %v, want one ending %q", c.body, tool, oracle, err, want)
				}
			}
		}
	}
}
