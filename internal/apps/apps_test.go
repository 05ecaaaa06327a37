package apps

import (
	"strings"
	"testing"

	"scalana/internal/ir"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// runApp executes the app on the bytecode VM, the engine the binaries run.
func runApp(t *testing.T, app *App, cfg mpisim.Config) mpisim.RunResult {
	t.Helper()
	prog := app.MustParse()
	code, err := vm.Compile(prog, psg.MustBuild(prog))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg.MemSpeed = app.MemSpeed
	res, err := mpisim.NewWorld(cfg).Run(vm.NewRunner(code).Stepper(nil, cfg.NP))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestAllAppsParseAndBuild: every registered workload must compile and
// produce a valid contracted PSG.
func TestAllAppsParseAndBuild(t *testing.T) {
	for _, name := range Names() {
		app := Get(name)
		prog, err := app.Parse()
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		g, err := psg.Build(prog, psg.DefaultOptions())
		if err != nil {
			t.Errorf("%s: PSG: %v", name, err)
			continue
		}
		if err := g.CheckInvariants(); err != nil {
			t.Errorf("%s: invariants: %v", name, err)
		}
		if g.Stats.MPIs == 0 {
			t.Errorf("%s: no MPI vertices", name)
		}
	}
}

// TestAllAppsRun: every workload runs to completion at a small scale,
// deterministically.
func TestAllAppsRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := Get(name)
			np := app.MinNP
			if np < 4 {
				np = 4
			}
			a := runApp(t, app, mpisim.Config{NP: np, Seed: 7})
			b := runApp(t, app, mpisim.Config{NP: np, Seed: 7})
			if a.Elapsed != b.Elapsed {
				t.Errorf("non-deterministic: %g vs %g", a.Elapsed, b.Elapsed)
			}
			if a.Elapsed <= 0 {
				t.Error("no virtual time elapsed")
			}
		})
	}
}

// TestAppsStrongScaling: doubling ranks must shrink the makespan for every
// evaluation program (they are strong-scaling ports).
func TestAppsStrongScaling(t *testing.T) {
	for _, name := range []string{"cg", "ep", "ft", "mg", "lu", "is", "bt", "sp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := Get(name)
			t4 := runApp(t, app, mpisim.Config{NP: 4}).Elapsed
			t16 := runApp(t, app, mpisim.Config{NP: 16}).Elapsed
			if t16 >= t4 {
				t.Errorf("no speedup from 4 to 16 ranks: %g -> %g", t4, t16)
			}
		})
	}
}

// TestZeusMPStructure verifies the port keeps the diagnostic structure the
// case study depends on: three Waitalls and the dt Allreduce inside nudt,
// and the bval3d loop.
func TestZeusMPStructure(t *testing.T) {
	g := psg.MustBuild(Get("zeusmp").MustParse())
	var waitalls, allreduces, bvalLoops int
	for _, v := range g.Vertices {
		if v.Name == "mpi_waitall" && strings.Contains(v.Key, "@nudt") {
			waitalls++
		}
		if v.Name == "mpi_allreduce" && strings.Contains(v.Key, "@nudt") {
			allreduces++
		}
		if v.Kind == psg.KindLoop && strings.Contains(v.Key, "@bval3d") {
			bvalLoops++
		}
	}
	if waitalls != 3 {
		t.Errorf("nudt waitalls = %d, want 3 (nudt.F:227/269/328 analogs)", waitalls)
	}
	if allreduces != 1 {
		t.Errorf("nudt allreduces = %d, want 1 (nudt.F:361 analog)", allreduces)
	}
	if bvalLoops != 1 {
		t.Errorf("bval3d loops = %d, want 1 (bval3d.F:155 analog)", bvalLoops)
	}
}

// TestSSTImbalanceByConstruction: per-rank pending-request counts differ.
func TestSSTImbalanceByConstruction(t *testing.T) {
	counts := map[float64]bool{}
	for rank := 0; rank < 32; rank++ {
		counts[600+600*float64((rank*13)%7)/7] = true
	}
	if len(counts) < 4 {
		t.Errorf("only %d distinct request counts across ranks", len(counts))
	}
}

// TestNekboneHeterogeneousCores: the memory speeds must take several
// distinct values.
func TestNekboneHeterogeneousCores(t *testing.T) {
	speeds := map[float64]bool{}
	for r := 0; r < 32; r++ {
		speeds[Get("nekbone").MemSpeed(r)] = true
	}
	if len(speeds) != 5 {
		t.Errorf("%d distinct memory speeds, want 5", len(speeds))
	}
	for s := range speeds {
		if s < 1.0 || s > 1.8 {
			t.Errorf("memory speed %g out of [1.0, 1.8]", s)
		}
	}
}

// TestCGDelayVariantDiffersOnlyOnRank4 checks the injected-delay source
// differs from plain CG only by the injected flag.
func TestCGDelayVariantDiffersOnlyOnRank4(t *testing.T) {
	plain := Get("cg").Source
	delay := Get("cg-delay").Source
	if plain == delay {
		t.Fatal("variants identical")
	}
	if strings.Replace(delay, "var injected = 1;", "var injected = 0;", 1) != plain {
		t.Error("cg-delay should differ from cg only in the injected flag")
	}
}

// TestRegistryHelpers covers the lookup helpers.
func TestRegistryHelpers(t *testing.T) {
	if Get("nope") != nil {
		t.Error("unknown app should be nil")
	}
	if len(NPBNames()) != 8 {
		t.Errorf("NPB names = %v", NPBNames())
	}
	if len(EvaluationNames()) != 11 {
		t.Errorf("evaluation names = %v", EvaluationNames())
	}
	for _, n := range EvaluationNames() {
		if Get(n) == nil {
			t.Errorf("evaluation app %q not registered", n)
		}
	}
	for _, name := range []string{"zeusmp", "sst", "nekbone"} {
		if Get(name) == nil || Get(name+"-opt") == nil {
			t.Errorf("case study %s or its -opt variant not registered", name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names() not sorted")
		}
	}
}

// TestAppsLoopStructureMatchesIR cross-checks each app's AST loops against
// CFG natural-loop detection — the same property the PSG builder relies on.
func TestAppsLoopStructureMatchesIR(t *testing.T) {
	for _, name := range EvaluationNames() {
		prog := Get(name).MustParse()
		for _, fd := range prog.Funcs {
			fn := ir.Lower(fd)
			dt := ir.ComputeDominators(fn)
			loops := ir.FindLoops(fn, dt)
			for _, l := range loops {
				if l.Node == nil {
					t.Errorf("%s/%s: natural loop without AST node", name, fd.Name)
				}
			}
		}
	}
}
