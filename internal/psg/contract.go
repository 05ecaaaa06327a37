package psg

import "scalana/internal/minilang"

// Graph contraction (paper §III-A "PSG Contraction"): communication is
// normally the main scalability bottleneck, so every MPI invocation and
// its enclosing control structures are preserved. Structures without MPI
// are reduced: branches collapse (their loops are hoisted and kept), loops
// nested deeper than MaxLoopDepth flatten, and consecutive Comp vertices
// merge into one.

// containsComm reports whether v's subtree contains an MPI vertex or a
// Call vertex (indirect/recursive call sites may reach MPI at run time,
// so they are conservatively preserved).
func containsComm(v *Vertex, memo map[*Vertex]bool) bool {
	if r, ok := memo[v]; ok {
		return r
	}
	r := v.Kind == KindMPI || v.Kind == KindCall
	if !r {
		for _, c := range v.Children {
			if containsComm(c, memo) {
				r = true
				break
			}
		}
	}
	memo[v] = r
	return r
}

// contraction is one contractSubtree's state. memo caches containsComm,
// replaced maps each removed vertex to the one that took it over, and
// scratch is a stack the vertices being transformed gather their kept
// children on: a vertex's list sits above its ancestors' and is gone
// before they go on.
type contraction struct {
	g        *Graph
	memo     map[*Vertex]bool
	replaced map[*Vertex]*Vertex
	scratch  []*Vertex
}

// contractSubtree contracts the subtree rooted at v in place. baseDepth is
// the number of Loop vertices enclosing v (0 for the root). After the
// transformation, every instance's node attribution is redirected to the
// surviving vertices.
func (g *Graph) contractSubtree(v *Vertex, baseDepth int) {
	k := &contraction{g: g, memo: map[*Vertex]bool{}, replaced: map[*Vertex]*Vertex{}}
	k.transformChildren(v, baseDepth)
	if len(k.replaced) == 0 {
		return
	}
	chase := func(x *Vertex) *Vertex {
		for {
			r, ok := k.replaced[x]
			if !ok {
				return x
			}
			x = r
		}
	}
	for _, inst := range g.instances {
		for id, vx := range inst.vertexOf {
			inst.vertexOf[id] = chase(vx)
		}
	}
}

func (k *contraction) transformChildren(v *Vertex, loopDepth int) {
	// process contracts children onto the scratch stack and merges
	// consecutive Comp vertices there, in place.
	process := func(children []*Vertex) {
		base := len(k.scratch)
		for _, c := range children {
			switch c.Kind {
			case KindLoop:
				if !containsComm(c, k.memo) && loopDepth+1 > k.g.Opts.MaxLoopDepth {
					k.scratch = append(k.scratch, k.g.flatten(c, k.replaced))
					continue
				}
				k.transformChildren(c, loopDepth+1)
				k.scratch = append(k.scratch, c)
			case KindCall:
				// Indirect call sites carry pre-materialized target
				// subtrees; contract them in place (the Call vertex itself
				// is always preserved).
				k.transformChildren(c, loopDepth)
				k.scratch = append(k.scratch, c)
			case KindBranch:
				if !containsComm(c, k.memo) {
					// A branch without MPI is not preserved, but loops
					// inside it are ("we only preserve Loop because
					// computation produced by loop iterations may dominate
					// performance"): contract the branch body, then hoist
					// its children in place of the branch. The branch's own
					// bookkeeping collapses into a Comp vertex.
					k.transformChildren(c, loopDepth)
					comp := &Vertex{
						Kind:        KindComp,
						Name:        "comp",
						Pos:         c.Pos,
						SiteNode:    c.SiteNode,
						Key:         c.Key,
						MergedNodes: append([]minilang.NodeID{c.SiteNode}, c.MergedNodes...),
					}
					k.replaced[c] = comp
					k.scratch = append(k.scratch, comp)
					k.scratch = append(k.scratch, c.Children...)
					continue
				}
				k.transformChildren(c, loopDepth)
				k.scratch = append(k.scratch, c)
			default:
				k.scratch = append(k.scratch, c)
			}
		}
		// Merge consecutive Comp vertices (paper: "merge continuous
		// vertices into a larger vertex").
		n := base
		for _, c := range k.scratch[base:] {
			if c.Kind == KindComp && n > base && k.scratch[n-1].Kind == KindComp {
				last := k.scratch[n-1]
				last.MergedNodes = append(last.MergedNodes, c.MergedNodes...)
				k.replaced[c] = last
				continue
			}
			c.Parent = v
			k.scratch[n] = c
			n++
		}
		k.scratch = k.scratch[:n]
	}

	base := len(k.scratch)
	if v.Kind == KindBranch {
		// Never merge Comp vertices across the then/else boundary.
		els := v.Children[v.ElseStart:]
		process(v.Children[:v.ElseStart])
		v.ElseStart = len(k.scratch) - base
		process(els)
	} else {
		process(v.Children)
		v.ElseStart = len(k.scratch) - base
	}
	// The old children are all on the stack now, so their array can take
	// the new ones when it is large enough.
	v.Children = append(v.Children[:0], k.scratch[base:]...)
	k.scratch = k.scratch[:base]
}

// flatten replaces a structure vertex (and its whole subtree) by a single
// Comp vertex carrying the structure's key and source position.
func (g *Graph) flatten(c *Vertex, replaced map[*Vertex]*Vertex) *Vertex {
	comp := &Vertex{
		Kind:     KindComp,
		Name:     "comp",
		Pos:      c.Pos,
		SiteNode: c.SiteNode,
		Key:      c.Key,
	}
	var walk func(x *Vertex)
	walk = func(x *Vertex) {
		replaced[x] = comp
		comp.MergedNodes = append(comp.MergedNodes, x.MergedNodes...)
		for _, ch := range x.Children {
			walk(ch)
		}
	}
	walk(c)
	return comp
}
