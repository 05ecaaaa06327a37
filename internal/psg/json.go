package psg

import (
	"encoding/json"
	"fmt"
)

// VertexDTO is the serialized form of one vertex, written by
// scalana-static -json; nothing in this repository reads it back.
type VertexDTO struct {
	ID         int    `json:"id"`
	Key        string `json:"key"`
	Kind       string `json:"kind"`
	Name       string `json:"name"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Parent     int    `json:"parent"` // -1 for root
	ElseStart  int    `json:"elseStart,omitempty"`
	Collective bool   `json:"collective,omitempty"`
	Stmts      int    `json:"stmts,omitempty"`
}

// GraphDTO is the serialized PSG.
type GraphDTO struct {
	File     string      `json:"file"`
	Stats    Stats       `json:"stats"`
	Vertices []VertexDTO `json:"vertices"`
}

// ToDTO converts the graph to its serializable form.
func (g *Graph) ToDTO() GraphDTO {
	dto := GraphDTO{File: g.Prog.File, Stats: g.Stats}
	for _, v := range g.Vertices {
		parent := -1
		if v.Parent != nil {
			parent = v.Parent.ID
		}
		dto.Vertices = append(dto.Vertices, VertexDTO{
			ID:         v.ID,
			Key:        v.Key,
			Kind:       v.Kind.String(),
			Name:       v.Name,
			File:       v.Pos.File,
			Line:       v.Pos.Line,
			Parent:     parent,
			ElseStart:  v.ElseStart,
			Collective: v.Collective,
			Stmts:      len(v.MergedNodes),
		})
	}
	return dto
}

// MarshalJSON serializes the PSG.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(g.ToDTO())
}

// SizeBytes estimates the in-memory footprint of the serialized graph,
// used for the static-overhead experiment (paper Table III's memory note:
// "each vertex of the PSG occupies 32B of memory").
func (g *Graph) SizeBytes() int {
	const perVertex = 32
	return len(g.Vertices) * perVertex
}

// CheckInvariants validates structural invariants of the graph; tests and
// property checks call it after construction. It returns an error
// describing the first violation found.
func (g *Graph) CheckInvariants() error {
	seen := map[*Vertex]bool{}
	var walk func(v *Vertex) error
	walk = func(v *Vertex) error {
		if seen[v] {
			return fmt.Errorf("vertex %s appears twice in tree", v)
		}
		seen[v] = true
		if v.ElseStart < 0 || v.ElseStart > len(v.Children) {
			return fmt.Errorf("vertex %s has ElseStart %d out of range [0,%d]", v, v.ElseStart, len(v.Children))
		}
		if v.Kind == KindMPI && len(v.Children) != 0 {
			return fmt.Errorf("MPI vertex %s has children", v)
		}
		if v.Kind == KindComp && len(v.Children) != 0 {
			return fmt.Errorf("Comp vertex %s has children", v)
		}
		for i, c := range v.Children {
			if c.Parent != v {
				return fmt.Errorf("child %d of %s has wrong parent", i, v)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		// Consecutive Comp siblings must have been merged (when the graph
		// is contracted), except across a Branch's then/else boundary.
		if g.Opts.Contract {
			for i := 1; i < len(v.Children); i++ {
				if i == v.ElseStart {
					continue
				}
				if v.Children[i].Kind == KindComp && v.Children[i-1].Kind == KindComp {
					return fmt.Errorf("unmerged consecutive Comp children under %s", v)
				}
			}
		}
		return nil
	}
	if err := walk(g.Root); err != nil {
		return err
	}
	if len(g.keys) != len(g.Vertices) {
		return fmt.Errorf("symbol table has %d keys for %d vertices", len(g.keys), len(g.Vertices))
	}
	for i, v := range g.Vertices {
		if v.ID != i {
			return fmt.Errorf("vertex %s has ID %d at index %d", v, v.ID, i)
		}
		if g.byKey[v.Key] != v {
			return fmt.Errorf("vertex %s not indexed by key", v)
		}
		if int(v.VID) != i || g.keys[i] != v.Key {
			return fmt.Errorf("vertex %s not bound in symbol table (VID %d, key %q at index %d)", v, v.VID, g.keys[i], i)
		}
	}
	if g.Root.VID != VIDRoot {
		return fmt.Errorf("root vertex has VID %d, want %d", g.Root.VID, VIDRoot)
	}
	return nil
}
