package psg

import (
	"testing"

	"scalana/internal/minilang"
)

func TestSymbolTableBasics(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func main() {
	compute(1e5, 1e3, 1e3, 64);
	for (var i = 0; i < 4; i = i + 1) {
		mpi_allreduce(8);
	}
}`)
	g := MustBuild(prog)
	if g.Root.VID != VIDRoot {
		t.Errorf("root VID = %d, want %d", g.Root.VID, VIDRoot)
	}
	if g.NumVIDs() != len(g.Vertices) {
		t.Errorf("NumVIDs = %d, vertices = %d", g.NumVIDs(), len(g.Vertices))
	}
	for _, v := range g.Vertices {
		if got := g.KeyOf(v.VID); got != v.Key {
			t.Errorf("KeyOf(%d) = %q, want %q", v.VID, got, v.Key)
		}
		if vid, ok := g.VIDOf(v.Key); !ok || vid != v.VID {
			t.Errorf("VIDOf(%q) = %d,%v, want %d", v.Key, vid, ok, v.VID)
		}
		if got := g.VertexByVID(v.VID); got != v {
			t.Errorf("VertexByVID(%d) = %v, want %v", v.VID, got, v)
		}
	}
	for _, v := range g.Vertices {
		if int(v.VID) != v.ID {
			t.Errorf("vertex %s: VID %d != preorder ID %d", v, v.VID, v.ID)
		}
	}
	if _, ok := g.VIDOf("nope"); ok {
		t.Error("unknown key should not resolve")
	}
	if g.KeyOf(VIDNone) != "" {
		t.Error("KeyOf(VIDNone) should be empty")
	}
	if g.VertexByVID(VID(1<<30)) != nil {
		t.Error("out-of-range VID should return nil vertex")
	}
	keys := g.Keys()
	if len(keys) != g.NumVIDs() {
		t.Fatalf("Keys() length = %d, want %d", len(keys), g.NumVIDs())
	}
	for i, key := range keys {
		if g.KeyOf(VID(i)) != key {
			t.Errorf("Keys()[%d] = %q disagrees with KeyOf", i, key)
		}
	}
}

// TestSymbolTableIsPreorderIndex is the identity the dense profile
// storage depends on, on a graph with materialized indirect targets and
// contraction: a vertex's VID is its index in Vertices, for good.
func TestSymbolTableIsPreorderIndex(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func double(x) { return x * 2; }
func triple(x) {
	for (var i = 0; i < 3; i = i + 1) { compute(10, 1, 1, 64); }
	return x * 3;
}
func main() {
	var f = &double;
	var h = &triple;
	var y = f(2);
	mpi_barrier();
}`)
	local, err := BuildLocal(prog, "triple")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{MustBuild(prog), local} {
		if g.Root.VID != VIDRoot || g.Vertices[VIDRoot] != g.Root {
			t.Errorf("root is VID %d, Vertices[0] = %s", g.Root.VID, g.Vertices[VIDRoot])
		}
		keys := g.Keys()
		if len(keys) != len(g.Vertices) || g.NumVIDs() != len(g.Vertices) {
			t.Fatalf("%d keys, %d VIDs, %d vertices", len(keys), g.NumVIDs(), len(g.Vertices))
		}
		for i, v := range g.Vertices {
			vid := VID(i)
			if v.VID != vid {
				t.Errorf("Vertices[%d] has VID %d", i, v.VID)
			}
			if keys[vid] != v.Key {
				t.Errorf("Keys()[%d] = %q, vertex key %q", vid, keys[vid], v.Key)
			}
			if got, ok := g.VIDOf(g.KeyOf(vid)); !ok || got != vid {
				t.Errorf("VIDOf(KeyOf(%d)) = %d, %v", vid, got, ok)
			}
		}
		if again := g.Keys(); &again[0] != &keys[0] {
			t.Error("Keys() copied the table; want the one shared slice")
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
