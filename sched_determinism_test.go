package scalana_test

import (
	"bytes"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/mpisim"
	"scalana/internal/prof"

	scalana "scalana"
)

// TestSchedulerOrderDeterminism proves the determinism contract of the
// cooperative scheduler: simulated output is a pure function of virtual
// clocks, never of the order ranks happen to run in. The test perturbs
// the one discretionary choice the scheduler makes — the rank-index
// tie-break between equal virtual clocks — by reversing it, reruns the
// whole pipeline, and demands byte-identical encoded profiles (each
// communication op with its peer rank and bytes, as prof.DefaultConfig
// records every one) and rendered and JSON detect reports.
func TestSchedulerOrderDeterminism(t *testing.T) {
	defer mpisim.SetReverseTieBreak(false)

	app := scalana.GetApp("zeusmp")
	nps := []int{8, 16}
	prog, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	profCfg := prof.DefaultConfig()
	profCfg.SampleHz = 2000

	type pipelineOut struct {
		profiles [][]byte
		render   string
		json     []byte
	}
	runPipeline := func() pipelineOut {
		var out pipelineOut
		var runs []detect.ScaleRun
		for _, np := range nps {
			ro, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{
				App: app, NP: np, ToolName: "scalana", Prof: profCfg, Seed: 11,
			})
			if err != nil {
				t.Fatalf("np=%d: %v", np, err)
			}
			ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: ro.Result.Elapsed, Profiles: ro.Profiles()}
			enc, err := ps.Encode()
			if err != nil {
				t.Fatalf("np=%d: encode profiles: %v", np, err)
			}
			out.profiles = append(out.profiles, enc)
			runs = append(runs, detect.ScaleRun{NP: np, PPG: ro.PPG()})
		}
		dcfg := detect.DefaultConfig()
		dcfg.CommCauses = true
		rep, err := scalana.DetectScalingLoss(runs, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		out.render = rep.Render(prog)
		if out.json, err = rep.EncodeJSON(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	mpisim.SetReverseTieBreak(false)
	forward := runPipeline()
	mpisim.SetReverseTieBreak(true)
	reversed := runPipeline()

	for i, np := range nps {
		if !bytes.Equal(forward.profiles[i], reversed.profiles[i]) {
			t.Errorf("np=%d: encoded profiles differ under reversed tie-break", np)
		}
	}
	if forward.render != reversed.render {
		t.Errorf("rendered detect reports differ under reversed tie-break:\n--- forward ---\n%s\n--- reversed ---\n%s",
			forward.render, reversed.render)
	}
	if !bytes.Equal(forward.json, reversed.json) {
		t.Errorf("detect report JSON differs under reversed tie-break")
	}
}
