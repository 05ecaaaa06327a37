package exp

import (
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e := Get(id)
	if e == nil {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.Text == "" {
		t.Fatalf("%s produced no output", id)
	}
	return res
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	want := []string{"table1", "fig2", "fig4", "fig6", "fig7", "fig8",
		"table2", "table3", "fig10", "fig11", "table4",
		"fig12", "fig13", "fig14", "fig15", "fig16", "synth"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	if Get("nope") != nil {
		t.Error("unknown id should be nil")
	}
}

func TestFig4Experiment(t *testing.T) {
	res := runExp(t, "fig4")
	if res.Values["vertices_after"] >= res.Values["vertices_before"] {
		t.Errorf("contraction did not shrink the example graph: %v", res.Values)
	}
	if res.Values["loops_after"] != 1 {
		t.Errorf("contracted example should keep exactly Loop 1: %v", res.Values)
	}
	for _, want := range []string{"local PSGs", "complete PSG", "contracted PSG"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	res := runExp(t, "table2")
	if res.Values["contraction_reduction_pct"] <= 0 {
		t.Errorf("no contraction reduction: %v", res.Values)
	}
	if res.Values["comp_mpi_share_pct"] < 50 {
		t.Errorf("Comp+MPI share too low: %v", res.Values)
	}
	for _, name := range []string{"cg", "zeusmp", "nekbone"} {
		if res.Values["vac_"+name] <= 0 {
			t.Errorf("missing vertex count for %s", name)
		}
	}
}

func TestFig2Experiment(t *testing.T) {
	res := runExp(t, "fig2")
	if res.Values["delay_found"] != 1 {
		t.Errorf("injected delay not found:\n%s", res.Text)
	}
}

func TestSynthExperiment(t *testing.T) {
	res := runExp(t, "synth")
	if res.Values["top1_accuracy"] < 0.8 {
		t.Errorf("synthetic-corpus top-1 localization accuracy %.2f below 0.8:\n%s",
			res.Values["top1_accuracy"], res.Text)
	}
	if !strings.Contains(res.Text, "localization accuracy by defect archetype") {
		t.Error("synth experiment output missing the accuracy table")
	}
}

func TestFig8Experiment(t *testing.T) {
	res := runExp(t, "fig8")
	if res.Values["paths"] == 0 {
		t.Error("no backtracking paths")
	}
	if res.Values["abnormal"] == 0 {
		t.Error("imbalanced stencil produced no abnormal vertices")
	}
}

// TestCaseStudyVerdicts asserts what each §VI-D case study concludes:
// the root cause is the paper's analog, and the paper's fix of it speeds
// the app up. Fig. 2's verdict is TestFig2Experiment's.
func TestCaseStudyVerdicts(t *testing.T) {
	for _, tc := range []struct {
		id   string
		mins map[string]float64
	}{
		{"fig12", map[string]float64{"bval3d_found": 1, "improvement_pct": 50}},
		{"fig14", map[string]float64{"handleevent_found": 1, "improvement_pct": 50}},
		{"fig15", map[string]float64{"tot_ins_reduction_pct": 90}},
		{"fig16", map[string]float64{"improvement_pct": 50, "tot_lst_reduction_pct": 80, "tot_cyc_var_reduction_pct": 80}},
	} {
		res := runExp(t, tc.id)
		for metric, min := range tc.mins {
			if v, ok := res.Values[metric]; !ok || v < min {
				t.Errorf("%s %s = %.2f, want at least %g:\n%s", tc.id, metric, v, min, res.Text)
			}
		}
	}
}
