// Package synth generates seeded synthetic MiniMP workloads with
// injected, labeled scaling defects, and scores the full ScalAna
// pipeline against that ground truth.
//
// ScalAna's central claim is not that it builds graphs but that
// backtracking on them locates the right root cause; the paper's
// evaluation injects known defects and reports localization accuracy.
// This package is the repo's version of that experiment, made
// repeatable: Generate composes structural templates (stencil halo
// exchange, butterfly reduction, master/worker, pipeline, iterative
// solver) with defect archetypes (computation imbalance growing with np,
// superlinear collective volume, p2p wait chains, serialized critical
// sections, input-dependent load skew), each carrying a GroundTruth
// record naming the culprit source span and PSG vertex keys; Evaluate
// sweeps every case across scales, runs detection, and matches the
// ranked causes against the labels to produce per-archetype
// precision/recall/top-k metrics.
//
// Everything is deterministic: generation derives each case from
// (Seed, case index) alone — no wall clock — so one seed reproduces the
// identical corpus byte-for-byte, and case i does not depend on how many
// cases follow it.
package synth

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	scalana "scalana"
)

// DefectKind names one injected scaling-defect archetype.
type DefectKind string

// The defect archetypes.
const (
	// DefectImbalance: a fixed subset of ranks does extra work that grows
	// linearly with np while the balanced work shrinks — the Zeus-MP
	// bval3d pattern.
	DefectImbalance DefectKind = "imbalance"
	// DefectCollective: a collective whose per-rank message volume grows
	// with np, so its cost scales superlinearly with the job size.
	DefectCollective DefectKind = "collective"
	// DefectWaitChain: one rank is intrinsically slow and stalls its
	// communication partners through p2p wait chains (paper Fig. 8).
	DefectWaitChain DefectKind = "waitchain"
	// DefectSerial: a token-serialized critical section — per-rank cost is
	// constant, but ranks execute it one after another, so the wall time
	// of the region grows linearly with np.
	DefectSerial DefectKind = "serial"
	// DefectSkew: input-dependent load skew — each rank's work is scaled
	// by a deterministic per-rank pseudo-random factor with a heavy tail.
	DefectSkew DefectKind = "skew"
)

// AllDefects lists every archetype in corpus rotation order.
func AllDefects() []DefectKind {
	return []DefectKind{DefectImbalance, DefectCollective, DefectWaitChain, DefectSerial, DefectSkew}
}

// GroundTruth labels one injected defect: where it lives in the
// generated source and which PSG vertices a correct localization may
// point at.
type GroundTruth struct {
	// Kind is the defect archetype.
	Kind DefectKind `json:"kind"`
	// File is the generated source file name.
	File string `json:"file"`
	// LineStart and LineEnd delimit the injected region (inclusive,
	// 1-based). A reported cause inside this span is a hit.
	LineStart int `json:"line_start"`
	LineEnd   int `json:"line_end"`
	// VertexKeys are the stable PSG keys of every vertex the compiled
	// graph places inside the span (computed at generation time).
	VertexKeys []string `json:"vertex_keys"`
	// AffectedRanks describes which ranks misbehave ("rank % 2 == 0",
	// "rank == 3", "all").
	AffectedRanks string `json:"affected_ranks"`
	// GrowsWithNP records whether the defect's cost grows with the scale.
	GrowsWithNP bool `json:"grows_with_np"`
	// Note is a human-readable description of the injection.
	Note string `json:"note"`
}

// Covers reports whether a reported cause location matches this defect:
// either its vertex key was labeled at generation time, or its source
// position falls inside the injected span.
func (gt *GroundTruth) Covers(vertexKey, file string, line int) bool {
	for _, k := range gt.VertexKeys {
		if k == vertexKey {
			return true
		}
	}
	return file == gt.File && line >= gt.LineStart && line <= gt.LineEnd
}

// Case is one generated workload with its labeled defects.
type Case struct {
	// Name is the unique case name ("synth-0007-stencil-imbalance").
	Name string `json:"name"`
	// Template is the structural template the case was built from.
	Template string `json:"template"`
	// Seed is the per-case seed everything about the case derives from.
	Seed int64 `json:"seed"`
	// MinNP is the smallest rank count the case supports.
	MinNP int `json:"min_np"`
	// Source is the complete generated MiniMP program.
	Source string `json:"source"`
	// Truth labels the injected defects; Truth[0] is the primary one.
	Truth []GroundTruth `json:"truth"`

	appOnce sync.Once
	app     *scalana.App
}

// Kinds returns the case's defect archetypes, primary first.
func (c *Case) Kinds() []DefectKind {
	out := make([]DefectKind, len(c.Truth))
	for i := range c.Truth {
		out[i] = c.Truth[i].Kind
	}
	return out
}

// File returns the case's generated source file name.
func (c *Case) File() string { return c.Name + ".mp" }

// App returns the runnable workload for the case. The value is cached:
// every sweep of one Case shares one *App, so an Engine compiles the
// case exactly once.
func (c *Case) App() *scalana.App {
	c.appOnce.Do(func() {
		c.app = &scalana.App{
			Name:        c.Name,
			File:        c.File(),
			Description: fmt.Sprintf("synthetic %s workload with injected %v", c.Template, c.Kinds()),
			Source:      c.Source,
			MinNP:       c.MinNP,
		}
	})
	return c.app
}

// Corpus is a generated set of cases plus the configuration that
// produced it.
type Corpus struct {
	// Seed is the corpus seed.
	Seed int64 `json:"seed"`
	// Archetypes lists the defect kinds in rotation order.
	Archetypes []DefectKind `json:"archetypes"`
	// Cases are the generated workloads.
	Cases []*Case `json:"cases"`
}

// EncodeJSON serializes the corpus deterministically.
func (c *Corpus) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(c, "", " ")
}

// Save writes the corpus to a JSON file.
func (c *Corpus) Save(path string) error {
	data, err := c.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
