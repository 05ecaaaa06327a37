// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; headline numbers are attached as custom
// metrics), plus ablation benchmarks for the design choices called out in
// DESIGN.md §10. Run with:
//
//	go test -bench=. -benchmem
package scalana_test

import (
	"testing"

	"scalana/internal/exp"
	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"
)

// benchExp runs one registered experiment per iteration and republishes
// its headline values as benchmark metrics.
func benchExp(b *testing.B, id string) {
	e := exp.Get(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *exp.Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for name, v := range last.Values {
		b.ReportMetric(v, name)
	}
}

func BenchmarkTable1ToolComparison(b *testing.B)    { benchExp(b, "table1") }
func BenchmarkFig2InjectedDelay(b *testing.B)       { benchExp(b, "fig2") }
func BenchmarkFig4PSGStages(b *testing.B)           { benchExp(b, "fig4") }
func BenchmarkFig6PPG(b *testing.B)                 { benchExp(b, "fig6") }
func BenchmarkFig7ProblematicVertices(b *testing.B) { benchExp(b, "fig7") }
func BenchmarkFig8Backtracking(b *testing.B)        { benchExp(b, "fig8") }
func BenchmarkTable2PSGSizes(b *testing.B)          { benchExp(b, "table2") }
func BenchmarkTable3StaticOverhead(b *testing.B)    { benchExp(b, "table3") }
func BenchmarkFig10RuntimeOverhead(b *testing.B)    { benchExp(b, "fig10") }
func BenchmarkFig11StorageCost(b *testing.B)        { benchExp(b, "fig11") }
func BenchmarkTable4DetectionCost(b *testing.B)     { benchExp(b, "table4") }
func BenchmarkFig12ZeusMP(b *testing.B)             { benchExp(b, "fig12") }
func BenchmarkFig13ZeusMPTools(b *testing.B)        { benchExp(b, "fig13") }
func BenchmarkFig14SST(b *testing.B)                { benchExp(b, "fig14") }
func BenchmarkFig15SSTPMU(b *testing.B)             { benchExp(b, "fig15") }
func BenchmarkFig16NekbonePMU(b *testing.B)         { benchExp(b, "fig16") }

// ---- ablations (DESIGN.md §10) ----

// BenchmarkAblationContraction compares PSG size and build cost with
// contraction enabled vs disabled.
func BenchmarkAblationContraction(b *testing.B) {
	app := scalana.GetApp("zeusmp")
	prog, err := app.Parse()
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var g *psg.Graph
			for i := 0; i < b.N; i++ {
				g, err = psg.Build(prog, psg.Options{MaxLoopDepth: 10, Contract: on})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Stats.VerticesAfter), "vertices")
		})
	}
}

// BenchmarkAblationCompression compares profile storage with graph-guided
// communication compression on vs off (paper §III-B2).
func BenchmarkAblationCompression(b *testing.B) {
	// One engine across variants: compile once, time execution only.
	e := scalana.NewEngine()
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var storage int64
			for i := 0; i < b.N; i++ {
				cfg := prof.DefaultConfig()
				cfg.NoCompress = !on
				out, err := e.Run(scalana.RunConfig{
					App: scalana.GetApp("cg"), NP: 32, ToolName: "scalana", Prof: cfg})
				if err != nil {
					b.Fatal(err)
				}
				storage = out.StorageBytes()
			}
			b.ReportMetric(float64(storage), "storage_bytes")
		})
	}
}

// BenchmarkAblationSampling sweeps the sampling frequency and reports the
// measured runtime overhead (the precision/overhead trade-off of §V).
func BenchmarkAblationSampling(b *testing.B) {
	app := scalana.GetApp("cg")
	// One engine across frequencies: compile once, time execution only.
	e := scalana.NewEngine()
	base, err := e.Run(scalana.RunConfig{App: app, NP: 32})
	if err != nil {
		b.Fatal(err)
	}
	for _, hz := range []float64{100, 200, 1000, 5000} {
		b.Run(hzName(hz), func(b *testing.B) {
			var ovh float64
			for i := 0; i < b.N; i++ {
				cfg := prof.DefaultConfig()
				cfg.SampleHz = hz
				out, err := e.Run(scalana.RunConfig{
					App: app, NP: 32, ToolName: "scalana", Prof: cfg})
				if err != nil {
					b.Fatal(err)
				}
				ovh = 100 * (out.Result.Elapsed - base.Result.Elapsed) / base.Result.Elapsed
			}
			b.ReportMetric(ovh, "overhead_pct")
		})
	}
}

// BenchmarkScale2048 exercises the largest-scale claim: Zeus-MP profiled
// by ScalAna at 2,048 simulated ranks (paper §VI-C reports 1.73% average
// overhead at this scale on Tianhe-2).
func BenchmarkScale2048(b *testing.B) {
	app := scalana.GetApp("zeusmp")
	// One engine for both runs of every iteration: compile once, time
	// execution only.
	e := scalana.NewEngine()
	for i := 0; i < b.N; i++ {
		base, err := e.Run(scalana.RunConfig{App: app, NP: 2048})
		if err != nil {
			b.Fatal(err)
		}
		out, err := e.Run(scalana.RunConfig{App: app, NP: 2048, ToolName: "scalana"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(out.Result.Elapsed-base.Result.Elapsed)/base.Result.Elapsed, "overhead_pct")
		b.ReportMetric(float64(out.StorageBytes()), "storage_bytes")
	}
}

func hzName(hz float64) string {
	switch hz {
	case 100:
		return "100Hz"
	case 200:
		return "200Hz"
	case 1000:
		return "1000Hz"
	default:
		return "5000Hz"
	}
}
