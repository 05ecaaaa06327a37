package psg

// Symbol table: dense interned vertex IDs (DESIGN.md §7).
//
// Every vertex has a VID, a dense uint32 index into the graph's symbol
// table. Downstream layers (prof, ppg, detect, trace) attribute
// performance data by VID — a slice index — instead of hashing the
// vertex's string key; the string keys survive only in the JSON wire
// formats and in rendering.
//
// A graph is finalized exactly once, at the end of Build, and never
// changes afterwards, so the table is simply the preorder vertex list:
// VID == Vertex.ID == index in Graph.Vertices, the root is VIDRoot (0),
// and every accessor below is an unsynchronized slice or map read that
// any number of goroutines may make at once.

// VID is a dense interned vertex ID, valid for one *Graph.
type VID uint32

// VIDRoot is the VID of the synthetic root vertex (always 0).
const VIDRoot VID = 0

// VIDNone marks "no vertex" (e.g. a communication record whose dependence
// has no responsible peer vertex).
const VIDNone VID = ^VID(0)

// NumVIDs returns the size of the symbol table; valid VIDs are
// [0, NumVIDs). Dense per-VID storage should be sized to this.
func (g *Graph) NumVIDs() int { return len(g.Vertices) }

// KeyOf returns the stable string key interned for a VID, or "" when the
// VID is out of range (including VIDNone).
func (g *Graph) KeyOf(id VID) string {
	if int(id) >= len(g.Vertices) {
		return ""
	}
	return g.Vertices[id].Key
}

// VIDOf returns the VID interned for a stable vertex key, or VIDNone and
// false when the graph has no such vertex.
func (g *Graph) VIDOf(key string) (VID, bool) {
	v := g.byKey[key]
	if v == nil {
		return VIDNone, false
	}
	return v.VID, true
}

// VIDOfBytes is VIDOf for a key still sitting in a read buffer: the map
// lookup converts in place, so resolving a key allocates nothing.
func (g *Graph) VIDOfBytes(key []byte) (VID, bool) {
	v := g.byKey[string(key)]
	if v == nil {
		return VIDNone, false
	}
	return v.VID, true
}

// VertexByVID returns the vertex bound to a VID, or nil when the VID is
// out of range.
func (g *Graph) VertexByVID(id VID) *Vertex {
	if int(id) >= len(g.Vertices) {
		return nil
	}
	return g.Vertices[id]
}

// Keys returns the symbol table's keys indexed by VID. The slice is
// computed once by Build and shared by every caller: it is read-only.
func (g *Graph) Keys() []string { return g.keys }
