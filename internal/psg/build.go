package psg

import (
	"fmt"
	"strconv"
	"sync"

	"scalana/internal/minilang"
)

// Options control PSG construction.
type Options struct {
	// MaxLoopDepth bounds the nesting depth of loops that contain no MPI
	// invocation; deeper loops are contracted into Comp vertices (paper
	// §III-A, user parameter MaxLoopDepth; the evaluation uses 10).
	MaxLoopDepth int
	// Contract enables graph contraction. Disable only for ablation.
	Contract bool
}

// DefaultOptions mirror the paper's evaluation setup.
func DefaultOptions() Options { return Options{MaxLoopDepth: 10, Contract: true} }

// Normalize canonicalizes user-supplied options: the zero value means
// "paper defaults", and any other value with a non-positive MaxLoopDepth
// gets the default depth. Engine.Compile normalizes through this method
// before building or cache keying, so Options{Contract: true} and
// DefaultOptions() are the same compilation — and the same cache entry.
func (o Options) Normalize() Options {
	if o == (Options{}) {
		return DefaultOptions()
	}
	if o.MaxLoopDepth <= 0 {
		o.MaxLoopDepth = DefaultOptions().MaxLoopDepth
	}
	return o
}

// Stats summarizes the built graph (paper Table II columns).
type Stats struct {
	VerticesBefore int // #VBC
	VerticesAfter  int // #VAC
	Loops          int
	Branches       int
	Comps          int
	MPIs           int
	Calls          int
}

// Graph is a Program Structure Graph. Build constructs it, finalizes it
// once and hands it out; nothing mutates it afterwards, so every field
// and accessor may be read from any number of goroutines with no lock.
type Graph struct {
	// Prog is the program the graph was built from.
	Prog *minilang.Program
	// Root is the synthetic root vertex above main's body.
	Root *Vertex
	// Vertices is the dense preorder vertex list, indexed by Vertex.ID
	// (equivalently by Vertex.VID: the symbol table of symtab.go).
	Vertices []*Vertex
	// Main is the instance of the program's main function.
	Main *Instance
	// Opts records the options the graph was built with.
	Opts Options
	// Stats summarizes construction (paper Table II columns).
	Stats Stats

	byKey     map[string]*Vertex
	keys      []string // Vertices[i].Key, the slice Keys hands out
	instances []*Instance
	parents   map[*Instance]*Instance // for recursion detection while building

	// Executable-form cache (see CompileExec). psg cannot depend on the
	// bytecode VM, so the cached value is opaque here; scalana stores the
	// vm.Program compiled for this graph.
	execOnce sync.Once
	execProg any
	execErr  error
}

// CompileExec memoizes an executable form of the graph's program (the
// bytecode VM's linked Program). The build function runs at most once
// per graph, with single-flight semantics under concurrent callers;
// every run sharing this graph then shares the one compiled artifact,
// mirroring how the Engine shares the graph itself.
func (g *Graph) CompileExec(build func() (any, error)) (any, error) {
	g.execOnce.Do(func() {
		g.execProg, g.execErr = build()
	})
	return g.execProg, g.execErr
}

// Build constructs the PSG of prog in the paper's three phases: local
// graphs per function, inlined top-down by walking the checked AST from
// main (each direct call splices in its callee), then contraction (if
// enabled). opts is normalized first: the zero value builds the paper's
// defaults. A direct call to a function prog does not define is an error.
func Build(prog *minilang.Program, opts Options) (*Graph, error) {
	opts = opts.Normalize()
	g := &Graph{
		Prog:    prog,
		Opts:    opts,
		byKey:   map[string]*Vertex{},
		parents: map[*Instance]*Instance{},
	}
	g.Root = &Vertex{Kind: KindRoot, Name: "root", Key: "root", Pos: minilang.Pos{File: prog.File, Line: 1, Col: 1}}

	mainFn := prog.Func("main")
	if mainFn == nil {
		return nil, fmt.Errorf("psg: program has no main")
	}
	g.Main = g.newInstance(nil, mainFn, "main")
	b := &builder{g: g}
	b.walkBlock(g.Main, mainFn.Body, g.Root)
	if b.err != nil {
		return nil, b.err
	}

	// Materialize every possible indirect-call target now: nothing can
	// add a vertex after finalize (see the comment in resolve.go).
	if err := g.materializeAllIndirect(); err != nil {
		return nil, err
	}

	g.Stats.VerticesBefore = countVertices(g.Root)
	if opts.Contract {
		g.contractSubtree(g.Root, g.Root.LoopDepth())
	}
	g.finalize()
	return g, nil
}

// MustBuild builds the PSG with default options and panics on error.
func MustBuild(prog *minilang.Program) *Graph {
	g, err := Build(prog, DefaultOptions())
	if err != nil {
		panic(fmt.Sprintf("psg.MustBuild: %v", err))
	}
	return g
}

// BuildLocal builds the intra-procedural local graph of a single function
// (paper Fig. 4(a)): direct calls stay as Call vertices and no contraction
// is applied. Its vertices are not meant for profiling attribution — use
// Build for that — but for inspecting the per-function analysis stage.
func BuildLocal(prog *minilang.Program, fnName string) (*Graph, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("psg: no function %q", fnName)
	}
	g := &Graph{
		Prog:    prog,
		Opts:    Options{MaxLoopDepth: DefaultOptions().MaxLoopDepth, Contract: false},
		byKey:   map[string]*Vertex{},
		parents: map[*Instance]*Instance{},
	}
	g.Root = &Vertex{Kind: KindRoot, Name: fnName, Key: "root", Pos: fn.Pos()}
	g.Main = g.newInstance(nil, fn, fnName)
	b := &builder{g: g, noInline: true}
	b.walkBlock(g.Main, fn.Body, g.Root)
	g.Stats.VerticesBefore = countVertices(g.Root)
	g.finalize()
	return g, nil
}

func (g *Graph) newInstance(parent *Instance, fn *minilang.FuncDecl, path string) *Instance {
	in := &Instance{
		ID:         len(g.instances),
		Fn:         fn,
		Path:       path,
		vertexOf:   map[minilang.NodeID]*Vertex{},
		calls:      map[minilang.NodeID]*Instance{},
		indirect:   map[minilang.NodeID]map[string]*Instance{},
		siteVertex: map[minilang.NodeID]*Vertex{},
	}
	g.instances = append(g.instances, in)
	g.parents[in] = parent
	return in
}

// builder performs the intra- plus inter-procedural walk. Inlining happens
// on the fly: entering a direct call to a function not already on the
// inlining stack creates a new Instance and splices the callee's local
// graph in place of the call (paper Fig. 4(b)).
type builder struct {
	g *Graph
	// stack of active (function name -> instance) for recursion detection.
	stack []stackEntry
	// noInline keeps direct calls as Call vertices instead of splicing in
	// the callee (intra-procedural local graphs, paper Fig. 4(a)).
	noInline bool
	// err is the first direct call to a function the program does not
	// define; the walk skips such calls and Build returns it.
	err error
	// buf is where key and path spell a name before it becomes a string.
	buf []byte
}

// key returns the key of the vertex of node n in inst: the instance's
// path, ':', the node's ID.
func (b *builder) key(inst *Instance, n minilang.Node) string {
	b.buf = append(append(b.buf[:0], inst.Path...), ':')
	b.buf = strconv.AppendInt(b.buf, int64(n.ID()), 10)
	return string(b.buf)
}

// path returns the path of the instance of fn called at site in inst:
// the caller's path, '/', the site's ID, '@', the callee's name.
func (b *builder) path(inst *Instance, site minilang.NodeID, fn string) string {
	b.buf = append(append(b.buf[:0], inst.Path...), '/')
	b.buf = append(append(strconv.AppendInt(b.buf, int64(site), 10), '@'), fn...)
	return string(b.buf)
}

type stackEntry struct {
	name string
	inst *Instance
}

func (b *builder) findOnStack(name string) *Instance {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i].name == name {
			return b.stack[i].inst
		}
	}
	return nil
}

func (b *builder) addChild(parent *Vertex, v *Vertex) *Vertex {
	v.Parent = parent
	parent.Children = append(parent.Children, v)
	return v
}

// compVertex returns a fresh Comp vertex for node n in instance inst.
func (b *builder) compVertex(inst *Instance, n minilang.Node) *Vertex {
	return &Vertex{
		Kind:        KindComp,
		Name:        "comp",
		Pos:         n.Pos(),
		Inst:        inst,
		SiteNode:    n.ID(),
		MergedNodes: []minilang.NodeID{n.ID()},
		Key:         b.key(inst, n),
	}
}

func (b *builder) walkBlock(inst *Instance, blk *minilang.Block, parent *Vertex) {
	inst.vertexOf[blk.ID()] = parent
	for _, s := range blk.Stmts {
		b.walkStmt(inst, s, parent)
	}
}

func (b *builder) walkStmt(inst *Instance, s minilang.Stmt, parent *Vertex) {
	switch st := s.(type) {
	case *minilang.VarDecl:
		b.walkExpr(inst, st.Init, parent)
		v := b.addChild(parent, b.compVertex(inst, st))
		inst.vertexOf[st.ID()] = v
	case *minilang.AssignStmt:
		if st.Idx != nil {
			b.walkExpr(inst, st.Idx, parent)
		}
		b.walkExpr(inst, st.Val, parent)
		v := b.addChild(parent, b.compVertex(inst, st))
		inst.vertexOf[st.ID()] = v
	case *minilang.ExprStmt:
		b.walkExpr(inst, st.X, parent)
		if _, isCall := st.X.(*minilang.CallExpr); !isCall {
			v := b.addChild(parent, b.compVertex(inst, st))
			inst.vertexOf[st.ID()] = v
		} else {
			// A bare call statement: attribution of the statement itself
			// follows the call's vertex mapping set in walkExpr.
			if inst.vertexOf[st.ID()] == nil {
				inst.vertexOf[st.ID()] = parent
			}
		}
	case *minilang.ReturnStmt:
		if st.Value != nil {
			b.walkExpr(inst, st.Value, parent)
		}
		v := b.addChild(parent, b.compVertex(inst, st))
		inst.vertexOf[st.ID()] = v
	case *minilang.BreakStmt, *minilang.ContinueStmt:
		inst.vertexOf[s.ID()] = parent
	case *minilang.Block:
		b.walkBlock(inst, st, parent)
	case *minilang.IfStmt:
		b.walkExpr(inst, st.Cond, parent)
		v := b.addChild(parent, &Vertex{
			Kind:     KindBranch,
			Name:     "branch",
			Pos:      st.Pos(),
			Inst:     inst,
			SiteNode: st.ID(),
			Key:      b.key(inst, st),
		})
		inst.vertexOf[st.ID()] = v
		b.walkBlock(inst, st.Then, v)
		v.ElseStart = len(v.Children)
		if st.Else != nil {
			b.walkBlock(inst, st.Else, v)
		}
	case *minilang.ForStmt:
		if st.Init != nil {
			b.walkStmt(inst, st.Init, parent)
		}
		v := b.addChild(parent, &Vertex{
			Kind:     KindLoop,
			Name:     "loop",
			Pos:      st.Pos(),
			Inst:     inst,
			SiteNode: st.ID(),
			Key:      b.key(inst, st),
		})
		inst.vertexOf[st.ID()] = v
		if st.Cond != nil {
			b.walkExpr(inst, st.Cond, v)
		}
		b.walkBlock(inst, st.Body, v)
		if st.Post != nil {
			// The post statement is loop bookkeeping: attribute it to the
			// loop vertex itself rather than a separate Comp.
			b.mapStmtTo(inst, st.Post, v)
			b.walkExprsOf(inst, st.Post, v)
		}
		v.ElseStart = len(v.Children)
	case *minilang.WhileStmt:
		v := b.addChild(parent, &Vertex{
			Kind:     KindLoop,
			Name:     "loop",
			Pos:      st.Pos(),
			Inst:     inst,
			SiteNode: st.ID(),
			Key:      b.key(inst, st),
		})
		inst.vertexOf[st.ID()] = v
		b.walkExpr(inst, st.Cond, v)
		b.walkBlock(inst, st.Body, v)
		v.ElseStart = len(v.Children)
	default:
		panic(fmt.Sprintf("psg: unknown statement %T", s))
	}
}

// mapStmtTo attributes a simple statement node (and nothing nested) to v.
func (b *builder) mapStmtTo(inst *Instance, s minilang.Stmt, v *Vertex) {
	inst.vertexOf[s.ID()] = v
}

// walkExprsOf walks call-like subexpressions of a simple statement.
func (b *builder) walkExprsOf(inst *Instance, s minilang.Stmt, parent *Vertex) {
	switch st := s.(type) {
	case *minilang.VarDecl:
		b.walkExpr(inst, st.Init, parent)
	case *minilang.AssignStmt:
		if st.Idx != nil {
			b.walkExpr(inst, st.Idx, parent)
		}
		b.walkExpr(inst, st.Val, parent)
	case *minilang.ExprStmt:
		b.walkExpr(inst, st.X, parent)
	}
}

// walkExpr emits vertices for call-like subexpressions in evaluation order.
func (b *builder) walkExpr(inst *Instance, e minilang.Expr, parent *Vertex) {
	switch ex := e.(type) {
	case *minilang.NumLit, *minilang.StrLit, *minilang.VarRef, *minilang.FuncRefExpr:
	case *minilang.IndexExpr:
		b.walkExpr(inst, ex.Idx, parent)
	case *minilang.UnaryExpr:
		b.walkExpr(inst, ex.X, parent)
	case *minilang.BinaryExpr:
		b.walkExpr(inst, ex.L, parent)
		b.walkExpr(inst, ex.R, parent)
	case *minilang.CallExpr:
		for _, a := range ex.Args {
			b.walkExpr(inst, a, parent)
		}
		b.walkCall(inst, ex, parent)
	}
}

func (b *builder) walkCall(inst *Instance, call *minilang.CallExpr, parent *Vertex) {
	switch {
	case call.Indirect:
		v := b.addChild(parent, &Vertex{
			Kind:         KindCall,
			Name:         "indirect:" + call.Name,
			Pos:          call.Pos(),
			Inst:         inst,
			SiteNode:     call.ID(),
			Key:          b.key(inst, call),
			IndirectSite: true,
		})
		inst.vertexOf[call.ID()] = v
		inst.siteVertex[call.ID()] = v

	case call.Builtin == nil: // direct user call
		if b.noInline {
			v := b.addChild(parent, &Vertex{
				Kind:     KindCall,
				Name:     "call:" + call.Name,
				Pos:      call.Pos(),
				Inst:     inst,
				SiteNode: call.ID(),
				Key:      b.key(inst, call),
			})
			inst.vertexOf[call.ID()] = v
			return
		}
		callee := b.g.Prog.Func(call.Name)
		if callee == nil {
			if b.err == nil {
				b.err = fmt.Errorf("psg: call to unknown function %q from %q", call.Name, inst.Fn.Name)
			}
			return
		}
		if rec := b.findOnStack(call.Name); rec != nil {
			// Recursion: the PSG forms a cycle back to the active instance
			// (paper §III-A, "a circle is formed in the PSG").
			v := b.addChild(parent, &Vertex{
				Kind:        KindCall,
				Name:        "recurse:" + call.Name,
				Pos:         call.Pos(),
				Inst:        inst,
				SiteNode:    call.ID(),
				Key:         b.key(inst, call),
				RecursiveTo: rec,
			})
			inst.vertexOf[call.ID()] = v
			inst.calls[call.ID()] = rec
			return
		}
		child := b.g.newInstance(inst, callee, b.path(inst, call.ID(), call.Name))
		inst.calls[call.ID()] = child
		inst.vertexOf[call.ID()] = parent
		b.stack = append(b.stack, stackEntry{name: call.Name, inst: child})
		b.walkBlock(child, callee.Body, parent)
		b.stack = b.stack[:len(b.stack)-1]

	case call.Builtin.Kind == minilang.BuiltinComm:
		v := b.addChild(parent, &Vertex{
			Kind:       KindMPI,
			Name:       call.Name,
			Pos:        call.Pos(),
			Inst:       inst,
			SiteNode:   call.ID(),
			Key:        b.key(inst, call),
			Builtin:    call.Builtin,
			Collective: call.Builtin.Collective,
		})
		inst.vertexOf[call.ID()] = v

	case call.Builtin.Kind == minilang.BuiltinCompute:
		v := b.addChild(parent, b.compVertex(inst, call))
		v.Name = "compute"
		inst.vertexOf[call.ID()] = v

	default:
		// Math/query/alloc/IO builtins fold into the surrounding statement.
	}
}

func countVertices(root *Vertex) int {
	n := 0
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		n++
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(root)
	return n
}

// finalize assigns dense IDs and VIDs in preorder, indexes keys, and
// computes after-contraction statistics. Build and BuildLocal call it
// exactly once, as their last step; the graph is immutable from then on.
func (g *Graph) finalize() {
	st := Stats{VerticesBefore: g.Stats.VerticesBefore}
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		v.ID = len(g.Vertices)
		v.VID = VID(v.ID)
		g.Vertices = append(g.Vertices, v)
		g.keys = append(g.keys, v.Key)
		if prev, dup := g.byKey[v.Key]; dup {
			panic(fmt.Sprintf("psg: duplicate vertex key %q (%s vs %s)", v.Key, prev, v))
		}
		g.byKey[v.Key] = v
		switch v.Kind {
		case KindLoop:
			st.Loops++
		case KindBranch:
			st.Branches++
		case KindComp:
			st.Comps++
		case KindMPI:
			st.MPIs++
		case KindCall:
			st.Calls++
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(g.Root)
	st.VerticesAfter = len(g.Vertices)
	g.Stats = st
}
