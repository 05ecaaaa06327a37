package exp

import (
	"fmt"
	"math"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/fit"
	"scalana/internal/machine"
	"scalana/internal/psg"
	"scalana/internal/report"

	scalana "scalana"
)

// caseStudy runs detection for an app and returns the report plus the
// largest-scale run output.
func caseStudy(name string, nps []int) (*detect.Report, []detect.ScaleRun, error) {
	app := scalana.GetApp(name)
	runs, err := sweep(app, scalesFor(app, nps))
	if err != nil {
		return nil, nil, err
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		return nil, nil, err
	}
	return rep, runs, nil
}

func fig2() (*Result, error) {
	r := newResult("fig2", "Fig. 2: injected delay on rank 4 of NPB-CG, np=8")
	app := scalana.GetApp("cg-delay")
	rep, _, err := caseStudy("cg-delay", []int{4, 8})
	if err != nil {
		return nil, err
	}
	r.addf("abnormal vertices (cross-process comparison):\n")
	for _, ab := range rep.Abnormal {
		r.addf("  %-34s ratio=%-8s outlier ranks=%v\n", ab.VertexKey, ratioStr(ab.Ratio), ab.OutlierRanks)
	}
	r.addf("\nbacktracking root cause detection:\n%s", renderPaths(rep, app, 4))

	found := 0.0
	for _, c := range rep.Causes {
		if c.Vertex.Kind == psg.KindComp {
			prog, _ := app.Parse()
			// The cause vertex merges the rank-4 branch with the injected
			// compute; either source line identifies it.
			for l := c.Vertex.Pos.Line; l <= c.Vertex.Pos.Line+1 && found == 0; l++ {
				if strings.Contains(prog.SourceLine(l), "injected") {
					found = 1
					r.addf("\n=> injected delay located: %s\n", describeVertex(c.Vertex, app))
				}
			}
		}
	}
	r.Values["delay_found"] = found
	return r, nil
}

func fig7() (*Result, error) {
	r := newResult("fig7", "Fig. 7: problematic vertex examples")
	// (a) non-scalable vertex: CG sweep; the rho Allreduce stops scaling
	// while compute vertices shrink with np.
	app := scalana.GetApp("cg")
	nps := []int{4, 8, 16, 32, 64}
	runs, err := sweep(app, nps)
	if err != nil {
		return nil, err
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		return nil, err
	}
	if len(rep.NonScalable) == 0 {
		return nil, fmt.Errorf("fig7: no non-scalable vertex found in CG sweep")
	}
	ns := rep.NonScalable[0]
	xs := make([]float64, len(nps))
	nsLine := make([]float64, len(nps))
	var compLine []float64
	// Contrast vertex: the heaviest well-scaling Comp vertex.
	compV, _ := heaviestVertex(runs[len(runs)-1], psg.KindComp, machine.TotCyc)
	if compV == nil {
		return nil, fmt.Errorf("fig7: no Comp vertex with attributed time in the CG sweep")
	}
	for i, run := range runs {
		xs[i] = float64(run.NP)
		nsLine[i] = fit.Median(run.PPG.TimeSeries(ns.Vertex.VID)) * 1e3
		compLine = append(compLine, fit.Median(run.PPG.TimeSeries(compV.VID))*1e3)
	}
	r.addf("%s\n", report.Series(
		fmt.Sprintf("(a) median per-rank time (ms) vs np; non-scalable: %s (slope %.2f), scalable: %s",
			ns.VertexKey, ns.Model.B, compV.Key),
		"np", xs, []report.NamedSeries{
			{Name: "non-scalable", Values: nsLine},
			{Name: "scalable comp", Values: compLine},
		}))
	r.Values["nonscalable_slope"] = ns.Model.B

	// (b) abnormal vertex: per-rank times on the imbalanced stencil.
	demo := scalana.GetApp("stencil-demo-imbalanced")
	out, err := eng.Run(scalana.RunConfig{App: demo, NP: 16, ToolName: "scalana", Prof: sweepProf()})
	if err != nil {
		return nil, err
	}
	abV, vals := heaviestVertex(detect.ScaleRun{NP: 16, PPG: out.PPG()}, psg.KindComp, machine.TotCyc)
	if abV == nil {
		return nil, fmt.Errorf("fig7: no Comp vertex with attributed time in the imbalanced stencil run")
	}
	labels := make([]string, len(vals))
	ms := make([]float64, len(vals))
	for i, v := range vals {
		labels[i] = fmt.Sprintf("rank %d", i)
		ms[i] = v * 1e3
	}
	r.addf("%s", report.Bars(fmt.Sprintf("(b) per-rank time (ms) of %s at np=16 (even ranks are abnormal)", abV.Key),
		labels, ms, func(v float64) string { return fmt.Sprintf("%.2f ms", v) }))
	r.Values["abnormal_ratio"] = fit.Max(vals) / fit.Median(vals)
	return r, nil
}

// heaviestVertex returns the vertex of the given kind with the largest
// summed time, plus its per-rank time series.
func heaviestVertex(run detect.ScaleRun, kind psg.Kind, c machine.Counter) (*psg.Vertex, []float64) {
	var best *psg.Vertex
	bestSum := -1.0
	for _, vid := range run.PPG.PresentVIDs() {
		v := run.PPG.PSG.VertexByVID(vid)
		if v == nil || v.Kind != kind {
			continue
		}
		// Skip imbalanced vertices when hunting a "scalable" contrast.
		s := 0.0
		for _, x := range run.PPG.TimeSeries(vid) {
			s += x
		}
		if s > bestSum {
			best, bestSum = v, s
		}
	}
	if best == nil {
		return nil, make([]float64, run.PPG.NP)
	}
	return best, run.PPG.TimeSeries(best.VID)
}

func fig8() (*Result, error) {
	r := newResult("fig8", "Fig. 8: problematic vertices and backtracking, imbalanced stencil, np=8")
	app := scalana.GetApp("stencil-demo-imbalanced")
	rep, _, err := caseStudy("stencil-demo-imbalanced", []int{4, 8})
	if err != nil {
		return nil, err
	}
	r.addf("problematic vertices:\n")
	for _, ns := range rep.NonScalable {
		r.addf("  non-scalable: %-34s slope=%.2f share=%.1f%%\n", ns.VertexKey, ns.Model.B, 100*ns.Share)
	}
	for _, ab := range rep.Abnormal {
		r.addf("  abnormal:     %-34s ratio=%-8s outliers=%v\n", ab.VertexKey, ratioStr(ab.Ratio), ab.OutlierRanks)
	}
	r.addf("\nbacktracking paths:\n%s", renderPaths(rep, app, 4))
	r.Values["paths"] = float64(len(rep.Paths))
	r.Values["abnormal"] = float64(len(rep.Abnormal))
	return r, nil
}

func fig12() (*Result, error) {
	r := newResult("fig12", "Fig. 12: Zeus-MP scaling loss diagnosis and fix")
	app := scalana.GetApp("zeusmp")
	rep, _, err := caseStudy("zeusmp", []int{8, 16, 32, 64, 128})
	if err != nil {
		return nil, err
	}
	r.addf("detected scaling issues (non-scalable vertices):\n")
	for _, ns := range rep.NonScalable {
		r.addf("  %s  slope=%.2f share=%.1f%%\n", describeVertex(ns.Vertex, app), ns.Model.B, 100*ns.Share)
	}
	r.addf("\nbacktracking on the PPG (np=%d):\n%s", rep.NP, renderPaths(rep, app, 3))

	bval := 0.0
	for _, c := range rep.Causes {
		if strings.Contains(c.VertexKey, "@bval3d") {
			bval = 1
			r.addf("\n=> root cause: %s (the paper's bval3d.F:155 analog)\n", describeVertex(c.Vertex, app))
		}
	}
	r.Values["bval3d_found"] = bval

	// Optimization: speedups relative to the smallest scale (the paper
	// uses a 1-process baseline; the port's minimum is 4 ranks).
	imp, err := speedupComparison(r, "zeusmp", "zeusmp-opt", []int{4, 16, 64, 128})
	if err != nil {
		return nil, err
	}
	r.Values["improvement_pct"] = imp
	return r, nil
}

// speedupComparison renders original-vs-optimized speedup curves and
// returns the performance improvement (%) at the largest scale.
func speedupComparison(r *Result, orig, opt string, nps []int) (float64, error) {
	a, b := scalana.GetApp(orig), scalana.GetApp(opt)
	nps = scalesFor(a, nps)
	var tOrig, tOpt []float64
	for _, np := range nps {
		o, err := eng.Run(scalana.RunConfig{App: a, NP: np})
		if err != nil {
			return 0, err
		}
		p, err := eng.Run(scalana.RunConfig{App: b, NP: np})
		if err != nil {
			return 0, err
		}
		tOrig = append(tOrig, o.Result.Elapsed)
		tOpt = append(tOpt, p.Result.Elapsed)
	}
	xs := make([]float64, len(nps))
	sOrig := make([]float64, len(nps))
	sOpt := make([]float64, len(nps))
	for i := range nps {
		xs[i] = float64(nps[i])
		sOrig[i] = tOrig[0] / tOrig[i]
		sOpt[i] = tOpt[0] / tOpt[i]
	}
	r.addf("\n%s", report.Series(
		fmt.Sprintf("speedup vs np (baseline np=%d of the original)", nps[0]),
		"np", xs, []report.NamedSeries{
			{Name: "original", Values: sOrig},
			{Name: "optimized", Values: sOpt},
		}))
	last := len(nps) - 1
	imp := 100 * (tOrig[last] - tOpt[last]) / tOrig[last]
	r.addf("performance improvement at np=%d: %.2f%%\n", nps[last], imp)
	return imp, nil
}

func fig13() (*Result, error) {
	r := newResult("fig13", "Fig. 13: Zeus-MP tool overhead and storage, np=64")
	ovh, storage, err := runTools(scalana.GetApp("zeusmp"), 64)
	if err != nil {
		return nil, err
	}
	rows := [][]string{
		{"Scalasca-like", report.Pct(ovh["tracer"]), report.Bytes(storage["tracer"])},
		{"HPCToolkit-like", report.Pct(ovh["hpctk"]), report.Bytes(storage["hpctk"])},
		{"ScalAna", report.Pct(ovh["scalana"]), report.Bytes(storage["scalana"])},
	}
	r.Text = report.Table(r.Title, []string{"Tool", "Runtime overhead", "Storage"}, rows)
	r.Values["zeusmp_overhead_tracer_pct"] = ovh["tracer"]
	r.Values["zeusmp_overhead_scalana_pct"] = ovh["scalana"]
	r.Values["zeusmp_storage_ratio"] = float64(storage["tracer"]) / float64(storage["scalana"])
	return r, nil
}

func fig14() (*Result, error) {
	r := newResult("fig14", "Fig. 14: SST root-cause paths and optimization, np=32")
	app := scalana.GetApp("sst")
	rep, _, err := caseStudy("sst", []int{4, 8, 16, 32})
	if err != nil {
		return nil, err
	}
	r.addf("backtracking on the PPG (np=%d):\n%s", rep.NP, renderPaths(rep, app, 3))
	found := 0.0
	for _, c := range rep.Causes {
		if strings.Contains(c.VertexKey, "@handleEvent") {
			found = 1
			r.addf("\n=> root cause: %s (the paper's mirandaCPU.cc:247 analog)\n", describeVertex(c.Vertex, app))
		}
	}
	r.Values["handleevent_found"] = found
	imp, err := speedupComparison(r, "sst", "sst-opt", []int{4, 8, 16, 32})
	if err != nil {
		return nil, err
	}
	r.Values["improvement_pct"] = imp
	return r, nil
}

func fig15() (*Result, error) {
	r := newResult("fig15", "Fig. 15: SST per-rank TOT_INS in handleEvent before/after the fix, np=32")
	origIns, err := handleEventSeries("sst", machine.TotIns)
	if err != nil {
		return nil, err
	}
	optIns, err := handleEventSeries("sst-opt", machine.TotIns)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(origIns))
	for i := range labels {
		labels[i] = fmt.Sprintf("rank %d", i)
	}
	r.addf("%s\n", report.Bars("original TOT_INS per rank", labels, origIns, engFmt))
	r.addf("%s\n", report.Bars("optimized TOT_INS per rank", labels, optIns, engFmt))
	redIns := 100 * (1 - fit.Mean(optIns)/fit.Mean(origIns))
	origCyc, err := handleEventSeries("sst", machine.TotCyc)
	if err != nil {
		return nil, err
	}
	optCyc, err := handleEventSeries("sst-opt", machine.TotCyc)
	if err != nil {
		return nil, err
	}
	redCyc := 100 * (1 - fit.Mean(optCyc)/fit.Mean(origCyc))
	r.addf("TOT_INS reduction: %.2f%% (paper: 99.92%%)\nTOT_CYC reduction: %.2f%% (paper: 99.78%%)\n", redIns, redCyc)
	r.Values["tot_ins_reduction_pct"] = redIns
	r.Values["tot_cyc_reduction_pct"] = redCyc
	return r, nil
}

// handleEventSeries extracts the per-rank counter for SST's handleEvent
// instance, summed over its vertices.
func handleEventSeries(appName string, c machine.Counter) ([]float64, error) {
	out, err := eng.Run(scalana.RunConfig{
		App: scalana.GetApp(appName), NP: 32, ToolName: "scalana", Prof: sweepProf()})
	if err != nil {
		return nil, err
	}
	sum := make([]float64, out.NP)
	keys := out.PPG().PSG.Keys()
	for _, vid := range out.PPG().PresentVIDs() {
		if !strings.Contains(keys[vid], "@handleEvent") {
			continue
		}
		for i, v := range out.PPG().PMUSeries(vid, c) {
			sum[i] += v
		}
	}
	return sum, nil
}

func fig16() (*Result, error) {
	r := newResult("fig16", "Fig. 16: Nekbone dgemm PMU data before/after the fix, np=32")
	series := func(appName string, c machine.Counter) ([]float64, error) {
		out, err := eng.Run(scalana.RunConfig{
			App: scalana.GetApp(appName), NP: 32, ToolName: "scalana", Prof: sweepProf()})
		if err != nil {
			return nil, err
		}
		sum := make([]float64, out.NP)
		keys := out.PPG().PSG.Keys()
		for _, vid := range out.PPG().PresentVIDs() {
			if !strings.Contains(keys[vid], "@dgemm") {
				continue
			}
			for i, v := range out.PPG().PMUSeries(vid, c) {
				sum[i] += v
			}
		}
		return sum, nil
	}
	origLst, err := series("nekbone", machine.TotLstIns)
	if err != nil {
		return nil, err
	}
	optLst, err := series("nekbone-opt", machine.TotLstIns)
	if err != nil {
		return nil, err
	}
	origCyc, err := series("nekbone", machine.TotCyc)
	if err != nil {
		return nil, err
	}
	optCyc, err := series("nekbone-opt", machine.TotCyc)
	if err != nil {
		return nil, err
	}
	r.addf("original:  TOT_LST_INS mean %.3g (uniform across ranks), TOT_CYC stddev/mean %.1f%%\n",
		fit.Mean(origLst), 100*fit.Stddev(origCyc)/fit.Mean(origCyc))
	r.addf("optimized: TOT_LST_INS mean %.3g, TOT_CYC stddev/mean %.1f%%\n",
		fit.Mean(optLst), 100*fit.Stddev(optCyc)/fit.Mean(optCyc))
	redLst := 100 * (1 - fit.Mean(optLst)/fit.Mean(origLst))
	varOrig := fit.Variance(origCyc)
	varOpt := fit.Variance(optCyc)
	redVar := 100 * (1 - varOpt/varOrig)
	r.addf("TOT_LST_INS reduction: %.2f%% (paper: 89.78%%)\n", redLst)
	r.addf("TOT_CYC variance reduction: %.2f%% (paper: 94.03%%)\n", redVar)
	imp, err := speedupComparison(r, "nekbone", "nekbone-opt", []int{4, 8, 16, 32, 64})
	if err != nil {
		return nil, err
	}
	r.Values["improvement_pct"] = imp
	r.Values["tot_lst_reduction_pct"] = redLst
	r.Values["tot_cyc_var_reduction_pct"] = redVar
	return r, nil
}

func ratioStr(x float64) string {
	if math.IsInf(x, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", x)
}

func engFmt(v float64) string { return fmt.Sprintf("%.3g", v) }
