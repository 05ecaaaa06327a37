package exp

import (
	"fmt"
	"strings"
	"time"

	"scalana/internal/detect"
	"scalana/internal/ir"
	"scalana/internal/minilang"
	"scalana/internal/psg"
	"scalana/internal/report"
	"scalana/internal/scales"

	scalana "scalana"
)

// table1 reproduces the paper's headline comparison (Scalasca 25.3% /
// 6.77GB, HPCToolkit 8.41% / 11.45MB, ScalAna 3.53% / 314KB on NPB-CG
// with 128 processes).
func table1() (*Result, error) {
	r := newResult("table1", "Table I: qualitative performance and storage analysis, NPB-CG, np=128")
	app := scalana.GetApp("cg")
	ovh, storage, err := runTools(app, 128)
	if err != nil {
		return nil, err
	}
	rows := [][]string{
		{"Scalasca-like", "Tracing-based", report.Pct(ovh["tracer"]), report.Bytes(storage["tracer"])},
		{"HPCToolkit-like", "Profiling-based", report.Pct(ovh["hpctk"]), report.Bytes(storage["hpctk"])},
		{"ScalAna", "Graph-based", report.Pct(ovh["scalana"]), report.Bytes(storage["scalana"])},
	}
	r.Text = report.Table(r.Title, []string{"Tool", "Approach", "Time Overhead", "Storage Cost"}, rows)
	r.Values["overhead_tracer_pct"] = ovh["tracer"]
	r.Values["overhead_hpctk_pct"] = ovh["hpctk"]
	r.Values["overhead_scalana_pct"] = ovh["scalana"]
	r.Values["storage_tracer_bytes"] = float64(storage["tracer"])
	r.Values["storage_hpctk_bytes"] = float64(storage["hpctk"])
	r.Values["storage_scalana_bytes"] = float64(storage["scalana"])
	return r, nil
}

// table3 measures PSG-construction cost relative to the plain front-end
// compile (parse + semantic check), the analog of the paper's "overhead
// compared to the original LLVM compilation".
func table3() (*Result, error) {
	r := newResult("table3", "Table III: static overhead of PSG construction vs plain compilation")
	headers := []string{"Program", "Compile", "PSG build", "Overhead", "PSG memory"}
	var rows [][]string
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		if app.PaperKLoc == 0 || name == "cg-delay" || strings.HasSuffix(name, "-opt") {
			continue // demo programs and variants are not in Table III
		}
		const reps = 200
		// The plain compile parses, lowers to IR, and runs the standard
		// loop analyses, like any optimizing compiler would.
		compileOnce := func() *minilang.Program {
			prog, err := app.Parse()
			if err != nil {
				panic(err)
			}
			fns := ir.LowerProgram(prog)
			for _, fn := range fns {
				dt := ir.ComputeDominators(fn)
				ir.FindLoops(fn, dt)
			}
			return prog
		}
		prog := compileOnce() // warm-up
		start := time.Now()
		for i := 0; i < reps; i++ {
			prog = compileOnce()
		}
		compile := time.Since(start).Seconds() / reps

		g, err := psg.Build(prog, psg.DefaultOptions()) // warm-up
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for i := 0; i < reps; i++ {
			g, err = psg.Build(prog, psg.DefaultOptions())
			if err != nil {
				return nil, err
			}
		}
		build := time.Since(start).Seconds() / reps
		ovd := 100 * build / compile
		rows = append(rows, []string{name, report.Seconds(compile), report.Seconds(build),
			report.Pct(ovd), report.Bytes(int64(g.SizeBytes()))})
		r.Values["static_ovd_"+name+"_pct"] = ovd
	}
	r.Text = report.Table(r.Title, headers, rows)
	return r, nil
}

// fig10 averages per-tool runtime overhead over the scale sweep for every
// evaluated program (paper: ScalAna 0.72-9.73%, avg 3.52% on Gorgon;
// Scalasca far higher).
func fig10() (*Result, error) {
	r := newResult("fig10", "Fig. 10: average runtime overhead (%), np in {4,16,64,128}")
	headers := []string{"Program", "Scalasca-like", "HPCToolkit-like", "ScalAna"}
	var rows [][]string
	sumS, sumH, sumT, n := 0.0, 0.0, 0.0, 0
	for _, name := range scalana.EvaluationNames() {
		app := scalana.GetApp(name)
		var aT, aH, aS float64
		nps, _ := scales.SplitMin([]int{4, 16, 64, 128}, app.MinNP)
		for _, np := range nps {
			ovh, _, err := runTools(app, np)
			if err != nil {
				return nil, err
			}
			aT += ovh["tracer"]
			aH += ovh["hpctk"]
			aS += ovh["scalana"]
		}
		k := float64(len(nps))
		aT, aH, aS = aT/k, aH/k, aS/k
		rows = append(rows, []string{name, report.Pct(aT), report.Pct(aH), report.Pct(aS)})
		r.Values["ovh_scalana_"+name+"_pct"] = aS
		sumT += aT
		sumH += aH
		sumS += aS
		n++
	}
	rows = append(rows, []string{"average", report.Pct(sumT / float64(n)),
		report.Pct(sumH / float64(n)), report.Pct(sumS / float64(n))})
	r.Values["avg_overhead_scalana_pct"] = sumS / float64(n)
	r.Values["avg_overhead_hpctk_pct"] = sumH / float64(n)
	r.Values["avg_overhead_tracer_pct"] = sumT / float64(n)
	r.Text = report.Table(r.Title, headers, rows)
	return r, nil
}

// fig11 compares the tools' storage at 128 processes for every program
// (paper: ScalAna KBs, HPCToolkit MBs, Scalasca MBs-GBs).
func fig11() (*Result, error) {
	r := newResult("fig11", "Fig. 11: storage cost at np=128")
	headers := []string{"Program", "Scalasca-like", "HPCToolkit-like", "ScalAna"}
	var rows [][]string
	for _, name := range scalana.EvaluationNames() {
		app := scalana.GetApp(name)
		_, storage, err := runTools(app, 128)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{name, report.Bytes(storage["tracer"]),
			report.Bytes(storage["hpctk"]), report.Bytes(storage["scalana"])})
		r.Values["storage_scalana_"+name+"_bytes"] = float64(storage["scalana"])
		r.Values["storage_tracer_"+name+"_bytes"] = float64(storage["tracer"])
	}
	r.Text = report.Table(r.Title, headers, rows)
	return r, nil
}

// table4 measures the post-mortem cost of scaling-loss detection at 128
// processes (paper: 0.29-11.81 s).
func table4() (*Result, error) {
	r := newResult("table4", "Table IV: post-mortem detection cost at np=128")
	headers := []string{"Program", "Detection cost", "Paths", "Causes"}
	var rows [][]string
	for _, name := range scalana.EvaluationNames() {
		app := scalana.GetApp(name)
		nps, _ := scales.SplitMin([]int{16, 32, 64, 128}, app.MinNP)
		runs, err := sweep(app, nps)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
		if err != nil {
			return nil, err
		}
		cost := time.Since(start).Seconds()
		rows = append(rows, []string{name, report.Seconds(cost),
			fmt.Sprintf("%d", len(rep.Paths)), fmt.Sprintf("%d", len(rep.Causes))})
		r.Values["detect_cost_"+name+"_sec"] = cost
	}
	r.Text = report.Table(r.Title, headers, rows)
	return r, nil
}
