package exp

import (
	"fmt"
	"sort"

	"scalana/internal/ppg"
	"scalana/internal/psg"
	"scalana/internal/report"

	scalana "scalana"
)

// fig4 renders the three construction stages of the paper's Fig. 4: the
// per-function local graphs, the complete inter-procedural graph, and the
// contracted graph with MaxLoopDepth=1 (which merges Loop 1.1/1.2).
func fig4() (*Result, error) {
	r := newResult("fig4", "Fig. 4: static PSG generation stages")
	app := scalana.GetApp("fig3")
	prog, err := app.Parse()
	if err != nil {
		return nil, err
	}

	r.addf("(a) local PSGs from intra-procedural analysis\n\n")
	for _, fn := range []string{"main", "foo"} {
		local, err := psg.BuildLocal(prog, fn)
		if err != nil {
			return nil, err
		}
		r.addf("%s:\n%s\n", fn, local.Render())
	}

	full, err := psg.Build(prog, psg.Options{MaxLoopDepth: 99, Contract: false})
	if err != nil {
		return nil, err
	}
	r.addf("(b) complete PSG from inter-procedural analysis (%d vertices)\n\n%s\n",
		full.Stats.VerticesAfter, full.Render())

	contracted, err := psg.Build(prog, psg.Options{MaxLoopDepth: 1, Contract: true})
	if err != nil {
		return nil, err
	}
	r.addf("(c) contracted PSG with MaxLoopDepth=1 (%d vertices; Loop 1.1 and 1.2 merged into one Comp)\n\n%s",
		contracted.Stats.VerticesAfter, contracted.Render())

	r.Values["vertices_before"] = float64(full.Stats.VerticesAfter)
	r.Values["vertices_after"] = float64(contracted.Stats.VerticesAfter)
	loops := 0
	for _, v := range contracted.Vertices {
		if v.Kind == psg.KindLoop {
			loops++
		}
	}
	r.Values["loops_after"] = float64(loops)
	return r, nil
}

// fig6 runs the Fig. 6 stencil on 8 processes and shows the assembled PPG:
// vertices with their performance vectors plus the inter-process
// dependence edges.
func fig6() (*Result, error) {
	r := newResult("fig6", "Fig. 6: PPG of the stencil demo, np=8")
	app := scalana.GetApp("stencil-demo")
	out, err := eng.Run(scalana.RunConfig{App: app, NP: 8, ToolName: "scalana", Prof: sweepProf()})
	if err != nil {
		return nil, err
	}
	r.addf("per-process PSG (replicated across 8 ranks):\n%s\n", out.Graph.Render())

	headers := []string{"Vertex", "Kind", "Line", "Time(rank0)", "TOT_INS(rank0)", "TOT_LST(rank0)"}
	var rows [][]string
	for _, v := range out.Graph.Vertices {
		if !out.PPG().Present(v.VID) || v.Kind == psg.KindRoot {
			continue
		}
		pd := out.PPG().PerfAt(v.VID, 0)
		rows = append(rows, []string{v.Key, v.Kind.String(), fmt.Sprintf("%d", v.Pos.Line),
			report.Seconds(pd.Time), fmt.Sprintf("%.3g", pd.PMU[0]), fmt.Sprintf("%.3g", pd.PMU[2])})
	}
	r.addf("%s\n", report.Table("vertex performance data (rank 0)", headers, rows))

	froms := make([]ppg.EdgeFrom, 0, len(out.PPG().Edges))
	for from := range out.PPG().Edges {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool {
		if froms[i].VID != froms[j].VID {
			return froms[i].VID < froms[j].VID
		}
		return froms[i].Rank < froms[j].Rank
	})
	var erows [][]string
	for _, from := range froms {
		for _, e := range out.PPG().Edges[from] {
			erows = append(erows, []string{out.Graph.KeyOf(from.VID), fmt.Sprintf("%d", from.Rank),
				out.Graph.KeyOf(e.PeerVID), fmt.Sprintf("%d", e.PeerRank),
				fmt.Sprintf("%d", e.Count), report.Seconds(e.TotalWait)})
		}
	}
	sortRows(erows)
	if len(erows) > 24 {
		erows = erows[:24]
	}
	r.addf("%s", report.Table("inter-process dependence edges (first 24)",
		[]string{"From vertex", "Rank", "To vertex", "To rank", "Count", "Total wait"}, erows))
	r.Values["edges"] = float64(out.PPG().NumEdges())
	r.Values["vertices"] = float64(len(out.Graph.Vertices))
	return r, nil
}

// table2 reproduces Table II: per-program vertex counts before/after
// contraction and the vertex-kind mix.
func table2() (*Result, error) {
	r := newResult("table2", "Table II: code size and PSG vertices for evaluated programs")
	headers := []string{"Program", "Paper KLoc", "#VBC", "#VAC", "#Loop", "#Branch", "#Comp", "#MPI"}
	var rows [][]string
	var sumBefore, sumAfter float64
	var compMPI, totalAfter float64
	for _, name := range scalana.EvaluationNames() {
		app := scalana.GetApp(name)
		_, g, err := scalana.Compile(app)
		if err != nil {
			return nil, err
		}
		st := g.Stats
		rows = append(rows, []string{
			name, fmt.Sprintf("%.1f", app.PaperKLoc),
			fmt.Sprintf("%d", st.VerticesBefore), fmt.Sprintf("%d", st.VerticesAfter),
			fmt.Sprintf("%d", st.Loops), fmt.Sprintf("%d", st.Branches),
			fmt.Sprintf("%d", st.Comps), fmt.Sprintf("%d", st.MPIs),
		})
		sumBefore += float64(st.VerticesBefore)
		sumAfter += float64(st.VerticesAfter)
		compMPI += float64(st.Comps + st.MPIs)
		totalAfter += float64(st.VerticesAfter)
		r.Values["vac_"+name] = float64(st.VerticesAfter)
	}
	r.Text = report.Table(r.Title, headers, rows)
	reduction := 100 * (1 - sumAfter/sumBefore)
	share := 100 * compMPI / totalAfter
	r.addf("\ncontraction reduces vertices by %.1f%% on average (paper: 68%%);"+
		" Comp+MPI vertices are %.1f%% of the contracted graph (paper: >73%%)\n", reduction, share)
	r.Values["contraction_reduction_pct"] = reduction
	r.Values["comp_mpi_share_pct"] = share
	return r, nil
}

func sortRows(rows [][]string) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func less(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
