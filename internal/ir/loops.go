package ir

import (
	"sort"

	"scalana/internal/minilang"
)

// Loop is one natural loop found in a function's CFG.
type Loop struct {
	Header *Block
	Blocks map[int]*Block // all blocks in the loop, by ID (includes header)
	Parent *Loop          // enclosing loop, nil for top level
	Depth  int            // 1 for outermost

	// Node is the syntactic loop statement that produced the header, when
	// the header carries one. All MiniMP loops are reducible and produced by
	// for/while, so this is always set; tests assert the CFG-detected loop
	// set exactly matches the AST loop set.
	Node minilang.Node
}

// FindLoops detects all natural loops of fn: for each back edge n->h where
// h dominates n, the loop body is h plus every block that reaches n without
// passing through h. Loops sharing a header are merged. The returned slice
// is ordered outermost-first (by depth, then header ID) and nesting links
// are populated.
func FindLoops(fn *Func, dt *DomTree) []*Loop {
	byHeader := map[int]*Loop{}
	for _, b := range fn.Blocks {
		if !dt.Reachable(b.ID) {
			continue
		}
		for _, succ := range b.Succs {
			if !dt.Dominates(succ.ID, b.ID) {
				continue // not a back edge
			}
			l := byHeader[succ.ID]
			if l == nil {
				l = &Loop{Header: succ, Blocks: map[int]*Block{succ.ID: succ}, Node: succ.LoopNode}
				byHeader[succ.ID] = l
			}
			// Collect the body by walking predecessors from the latch.
			stack := []*Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if _, ok := l.Blocks[x.ID]; ok {
					continue
				}
				l.Blocks[x.ID] = x
				for _, p := range x.Preds {
					if dt.Reachable(p.ID) {
						stack = append(stack, p)
					}
				}
			}
		}
	}

	headers := make([]int, 0, len(byHeader))
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	loops := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		loops = append(loops, byHeader[h])
	}
	// Establish nesting: the parent of l is the smallest loop that strictly
	// contains l's header and is not l itself.
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l {
				continue
			}
			if _, ok := m.Blocks[l.Header.ID]; !ok {
				continue
			}
			if best == nil || len(m.Blocks) < len(best.Blocks) {
				best = m
			}
		}
		l.Parent = best
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth < loops[j].Depth
		}
		return loops[i].Header.ID < loops[j].Header.ID
	})
	return loops
}
