package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

// gateSeed/gateCases pin the committed corpus the CI accuracy gate runs
// on; regenerate testdata/corpus-seed1.json with
// `go run ./cmd/scalana-synth -seed 1 -cases 25 -corpus <path>` if the
// generator intentionally changes.
const (
	gateSeed  = 1
	gateCases = 25
	// gateTop1 is the accuracy floor recorded in this PR: the committed
	// corpus localizes every archetype perfectly, so a drop below 0.8
	// overall or per archetype signals a real detection regression.
	gateTop1 = 0.8
)

func gateCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpus, err := Generate(GenConfig{Seed: gateSeed, Cases: gateCases})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestGenerateReproducible: the same seed generates the identical corpus
// byte-for-byte, and case i does not depend on how many cases follow it.
func TestGenerateReproducible(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 7, Cases: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 7, Cases: 12})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := b.EncodeJSON()
	if !bytes.Equal(aj, bj) {
		t.Error("two generations with one seed differ")
	}

	prefix, err := Generate(GenConfig{Seed: 7, Cases: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range prefix.Cases {
		if c.Source != a.Cases[i].Source || c.Name != a.Cases[i].Name {
			t.Errorf("case %d differs between a 5-case and a 12-case corpus", i)
		}
	}

	c, err := Generate(GenConfig{Seed: 8, Cases: 12})
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := c.EncodeJSON()
	if bytes.Equal(aj, cj) {
		t.Error("different seeds generated identical corpora")
	}
}

// TestCommittedCorpusByteIdentical: regenerating the committed
// fixed-seed corpus reproduces the file byte-for-byte — the
// `scalana-synth -seed 1 -cases 25` reproducibility contract.
func TestCommittedCorpusByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "corpus-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gateCorpus(t).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("regenerated seed-%d corpus differs from testdata/corpus-seed1.json (%d vs %d bytes); if the generator changed intentionally, regenerate the file and re-baseline the accuracy gate", gateSeed, len(got), len(want))
	}
}

// TestGroundTruthLabels: every generated case compiles and every defect
// span resolves to at least one PSG vertex whose position lies inside it.
func TestGroundTruthLabels(t *testing.T) {
	corpus := gateCorpus(t)
	seenKind := map[DefectKind]bool{}
	seenTmpl := map[string]bool{}
	for _, c := range corpus.Cases {
		if len(c.Truth) == 0 {
			t.Errorf("%s has no ground truth", c.Name)
		}
		seenTmpl[c.Template] = true
		for _, gt := range c.Truth {
			seenKind[gt.Kind] = true
			if len(gt.VertexKeys) == 0 {
				t.Errorf("%s: defect %s has no vertex keys", c.Name, gt.Kind)
			}
			if gt.LineStart <= 0 || gt.LineEnd < gt.LineStart {
				t.Errorf("%s: defect %s has bad span %d-%d", c.Name, gt.Kind, gt.LineStart, gt.LineEnd)
			}
		}
	}
	for _, k := range AllDefects() {
		if !seenKind[k] {
			t.Errorf("corpus covers no %s case", k)
		}
	}
	if len(seenTmpl) < 4 {
		t.Errorf("corpus uses only %d templates", len(seenTmpl))
	}
}

// TestAccuracyGate is the CI gate: the committed fixed-seed corpus must
// localize root causes with top-1 accuracy >= 0.8 overall and for every
// archetype. A drop means a detection-quality regression.
func TestAccuracyGate(t *testing.T) {
	res, err := Evaluate(gateCorpus(t), EvalConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Top1Accuracy < gateTop1 {
		t.Errorf("overall top-1 localization accuracy %.2f below the %.2f gate\n%s", res.Top1Accuracy, float64(gateTop1), res.Render())
	}
	for i := range res.Kinds {
		m := &res.Kinds[i]
		if m.Cases == 0 {
			t.Errorf("archetype %s has no cases", m.Kind)
			continue
		}
		if acc := m.Top1Accuracy(); acc < gateTop1 {
			t.Errorf("archetype %s top-1 accuracy %.2f below the %.2f gate", m.Kind, acc, float64(gateTop1))
		}
	}
	if res.TopKAccuracy < res.Top1Accuracy {
		t.Errorf("top-%d accuracy %.2f below top-1 %.2f", res.TopK, res.TopKAccuracy, res.Top1Accuracy)
	}
}

// TestEvaluateDeterministic: evaluating one corpus twice — once serially,
// once with case-level parallelism — produces byte-identical JSON.
func TestEvaluateDeterministic(t *testing.T) {
	corpus, err := Generate(GenConfig{Seed: 5, Cases: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Evaluate(corpus, EvalConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(corpus, EvalConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := b.EncodeJSON()
	if !bytes.Equal(aj, bj) {
		t.Errorf("parallel evaluation differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", aj, bj)
	}
	if a.Render() != b.Render() {
		t.Error("rendered evaluation differs between serial and parallel runs")
	}
}

// TestCaseSweepParallelismIdentity: for generated cases, a Sweep at
// Parallelism 1 and 4 produces byte-identical detection reports (the CI
// container has one CPU, so this asserts identity, not speedup).
func TestCaseSweepParallelismIdentity(t *testing.T) {
	corpus, err := Generate(GenConfig{Seed: 9, Cases: 3})
	if err != nil {
		t.Fatal(err)
	}
	profCfg := prof.DefaultConfig()
	profCfg.SampleHz = 5000
	dcfg := detect.DefaultConfig()
	dcfg.CommCauses = true
	for _, c := range corpus.Cases {
		var reports [][]byte
		for _, parallelism := range []int{1, 4} {
			runs, err := scalana.NewEngine().Sweep(c.App(), []int{4, 8, 16}, scalana.SweepConfig{
				Parallelism: parallelism,
				Prof:        profCfg,
			})
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", c.Name, parallelism, err)
			}
			rep, err := detect.Detect(runs, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := rep.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, enc)
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: parallel sweep report differs from serial", c.Name)
		}
	}
}
