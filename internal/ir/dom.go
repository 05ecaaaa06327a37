package ir

// Dominator analysis using the Cooper–Harvey–Kennedy iterative algorithm
// ("A Simple, Fast Dominance Algorithm"). Natural-loop detection (loops.go)
// is built on top of it, mirroring how an LLVM-based PSG pass identifies
// loops in each procedure's CFG.

// DomTree holds the immediate-dominator relation for one function's CFG.
type DomTree struct {
	fn   *Func
	idom []int // immediate dominator by block ID; -1 for entry/unreachable
	rpo  []int // reverse postorder position by block ID; -1 if unreachable
}

// ComputeDominators builds the dominator tree of fn.
func ComputeDominators(fn *Func) *DomTree {
	n := len(fn.Blocks)
	dt := &DomTree{fn: fn, idom: make([]int, n), rpo: make([]int, n)}
	for i := range dt.idom {
		dt.idom[i] = -1
		dt.rpo[i] = -1
	}

	// Postorder DFS from the entry block.
	var order []*Block
	visited := make([]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.ID] = true
		for _, s := range b.Succs {
			if !visited[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	if n == 0 {
		return dt
	}
	entry := fn.Blocks[0]
	dfs(entry)

	// Reverse postorder numbering.
	for i := len(order) - 1; i >= 0; i-- {
		dt.rpo[order[i].ID] = len(order) - 1 - i
	}

	dt.idom[entry.ID] = entry.ID
	changed := true
	for changed {
		changed = false
		for i := len(order) - 2; i >= 0; i-- { // RPO, skipping entry
			b := order[i]
			newIdom := -1
			for _, p := range b.Preds {
				if dt.idom[p.ID] == -1 {
					continue // predecessor not processed yet / unreachable
				}
				if newIdom == -1 {
					newIdom = p.ID
				} else {
					newIdom = dt.intersect(p.ID, newIdom)
				}
			}
			if newIdom != -1 && dt.idom[b.ID] != newIdom {
				dt.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return dt
}

func (dt *DomTree) intersect(a, b int) int {
	for a != b {
		for dt.rpo[a] > dt.rpo[b] {
			a = dt.idom[a]
		}
		for dt.rpo[b] > dt.rpo[a] {
			b = dt.idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b.
func (dt *DomTree) Dominates(a, b int) bool {
	if dt.idom[b] == -1 {
		return false // b unreachable
	}
	for {
		if a == b {
			return true
		}
		if b == dt.fn.Blocks[0].ID {
			return false
		}
		b = dt.idom[b]
	}
}

// Reachable reports whether block b is reachable from the entry.
func (dt *DomTree) Reachable(b int) bool { return dt.idom[b] != -1 }
