// Package psg builds ScalAna's Program Structure Graph (paper §III-A).
//
// A PSG is a per-process sketch of the parallel program: vertices are the
// main computation and communication components plus control structures
// (Loop, Branch, Comp, MPI); edges are execution order within a process.
// It is built in three phases, exactly as the paper describes:
//
//  1. intra-procedural analysis: a local graph per function derived from
//     its control-flow structure;
//  2. inter-procedural analysis: a top-down traversal of the program call
//     graph from main, replacing user-defined calls by the callee's local
//     graph (recursion forms a cycle; an indirect call stays a Call
//     vertex with the subtree of every address-taken function beneath
//     it — the paper fills these in at run time, see resolve.go);
//  3. graph contraction: MPI invocations and their enclosing control
//     structures are always preserved; branches without MPI collapse into
//     Comp vertices; loops without MPI nested deeper than MaxLoopDepth are
//     flattened; consecutive Comp vertices merge.
package psg

import (
	"fmt"

	"scalana/internal/minilang"
)

// Kind is the vertex kind.
type Kind int

// Vertex kinds (paper: Branch, Loop, Function call, Comp, MPI, plus Root).
const (
	KindRoot Kind = iota
	KindLoop
	KindBranch
	KindComp
	KindMPI
	KindCall // unresolved indirect call site or recursive back-reference
)

func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "Root"
	case KindLoop:
		return "Loop"
	case KindBranch:
		return "Branch"
	case KindComp:
		return "Comp"
	case KindMPI:
		return "MPI"
	case KindCall:
		return "Call"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Vertex is one PSG vertex. Children are in execution order; the implicit
// edge from child i to child i+1 is the data/control-flow execution-order
// edge the paper draws, and the edge from a Loop/Branch parent into its
// children is the control-dependence edge used by backtracking.
type Vertex struct {
	ID   int    // dense index in Graph.Vertices, assigned after contraction
	VID  VID    // interned symbol-table ID, equal to ID (see symtab.go)
	Key  string // stable identifier across runs and scales
	Kind Kind
	Name string // display name: builtin name, "loop", "branch", ...
	Pos  minilang.Pos

	Parent   *Vertex
	Children []*Vertex
	// ElseStart is the index in Children where the else-arm begins for a
	// Branch vertex (== len(Children) when there is no else arm).
	ElseStart int

	// Builtin is set for MPI vertices.
	Builtin *minilang.Builtin
	// Collective mirrors Builtin.Collective for quick checks.
	Collective bool

	// Inst is the function instance this vertex belongs to.
	Inst *Instance
	// SiteNode is the AST node that created this vertex (first merged node
	// for contracted Comp vertices).
	SiteNode minilang.NodeID
	// MergedNodes lists all AST statement nodes attributed to this vertex
	// after contraction (only maintained for Comp vertices).
	MergedNodes []minilang.NodeID

	// RecursiveTo is set on KindCall vertices that close a recursion cycle:
	// it names the ancestor instance executing the callee.
	RecursiveTo *Instance
	// IndirectSite marks the KindCall vertex of an indirect call; the
	// subtrees of its possible targets hang beneath it.
	IndirectSite bool
}

// IsRoot reports whether v is the root vertex.
func (v *Vertex) IsRoot() bool { return v.Kind == KindRoot }

// IndexInParent returns v's position among its parent's children, or -1.
func (v *Vertex) IndexInParent() int {
	if v.Parent == nil {
		return -1
	}
	for i, c := range v.Parent.Children {
		if c == v {
			return i
		}
	}
	return -1
}

// PrevSibling returns the previous child of v's parent, or nil.
func (v *Vertex) PrevSibling() *Vertex {
	i := v.IndexInParent()
	if i <= 0 {
		return nil
	}
	return v.Parent.Children[i-1]
}

// LastChild returns the final child of v, or nil.
func (v *Vertex) LastChild() *Vertex {
	if len(v.Children) == 0 {
		return nil
	}
	return v.Children[len(v.Children)-1]
}

// LoopDepth counts enclosing Loop vertices including v itself when v is a
// loop.
func (v *Vertex) LoopDepth() int {
	d := 0
	for x := v; x != nil; x = x.Parent {
		if x.Kind == KindLoop {
			d++
		}
	}
	return d
}

// Path returns the chain of vertices from the root down to v.
func (v *Vertex) Path() []*Vertex {
	var rev []*Vertex
	for x := v; x != nil; x = x.Parent {
		rev = append(rev, x)
	}
	out := make([]*Vertex, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func (v *Vertex) String() string {
	return fmt.Sprintf("%s %s @%s:%d", v.Kind, v.Name, v.Pos.File, v.Pos.Line)
}

// Instance is one inlined copy of a function on a particular call path.
// The inter-procedural phase creates one instance per (call path, callee);
// the interpreter walks the same instances at run time so that performance
// data lands on the right vertex even when a function is called from many
// places.
type Instance struct {
	// ID is the instance's creation index within its graph.
	ID int
	// Fn is the function this instance is a copy of.
	Fn *minilang.FuncDecl
	// Path names the call path: "main", "main/17@foo", ...
	Path string

	// vertexOf maps AST node -> the retained vertex that attributes it.
	vertexOf map[minilang.NodeID]*Vertex
	// calls maps direct call-site nodes to the callee instance.
	calls map[minilang.NodeID]*Instance
	// indirect maps indirect call-site nodes to the materialized target
	// instances, by callee name (pre-filled by Build for every
	// address-taken function; read-only afterwards).
	indirect map[minilang.NodeID]map[string]*Instance
	// siteVertex maps indirect call-site nodes to their Call vertex.
	siteVertex map[minilang.NodeID]*Vertex
}

// VertexOf returns the vertex attributing the given AST node in this
// instance, or nil if the node does not belong to this instance.
func (in *Instance) VertexOf(id minilang.NodeID) *Vertex { return in.vertexOf[id] }

// CalleeInstance returns the instance entered by the direct call at the
// given site node, or nil.
func (in *Instance) CalleeInstance(site minilang.NodeID) *Instance { return in.calls[site] }
