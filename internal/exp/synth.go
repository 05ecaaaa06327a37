package exp

// The ground-truth accuracy case study: the repo's analog of the paper's
// injected-defect localization evaluation (§VI-B reports ScalAna finding
// the injected Fig. 2 delay; the synthetic corpus generalizes that to
// five defect archetypes across five program families).

import (
	"fmt"

	"scalana/internal/synth"
)

// synthGateSeed/synthGateCases mirror the committed fixed-seed corpus
// the CI accuracy gate pins (internal/synth/testdata/corpus-seed1.json).
const (
	synthGateSeed  = 1
	synthGateCases = 25
)

func synthAccuracy() (*Result, error) {
	r := newResult("synth", "Root-cause localization accuracy on the seeded synthetic corpus")
	corpus, err := synth.Generate(synth.GenConfig{Seed: synthGateSeed, Cases: synthGateCases})
	if err != nil {
		return nil, err
	}
	res, err := synth.Evaluate(corpus, synth.EvalConfig{Engine: eng})
	if err != nil {
		return nil, err
	}
	r.addf("%s", res.Render())
	r.Values["top1_accuracy"] = res.Top1Accuracy
	r.Values["topk_accuracy"] = res.TopKAccuracy
	r.Values["recall"] = res.Recall
	r.Values["precision"] = res.Precision
	for i := range res.Kinds {
		m := &res.Kinds[i]
		r.Values[fmt.Sprintf("top1_%s", m.Kind)] = m.Top1Accuracy()
	}
	return r, nil
}
