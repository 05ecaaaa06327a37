package psg

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"scalana/internal/minilang"
)

const fig3 = `
func foo() {
	if (mpi_rank() % 2 == 0) {
		mpi_send(mpi_rank() + 1, 0, 64);
	} else {
		mpi_recv(mpi_rank() - 1, 0, 64);
	}
}
func main() {
	var N = 16;
	var sum = 0;
	var product = 1;
	var A = alloc(N);
	for (var i = 0; i < N; i = i + 1) {
		A[i] = rand();
		for (var j = 0; j < i; j = j + 1) {
			sum = sum + A[j];
		}
		for (var k = 0; k < i; k = k + 1) {
			product = product * A[k];
		}
	}
	foo();
	mpi_bcast(0, 64);
}
`

func build(t *testing.T, src string, opts Options) *Graph {
	t.Helper()
	prog, err := minilang.Parse("t.mp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := Build(prog, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return g
}

func kindsOf(vs []*Vertex) []Kind {
	out := make([]Kind, len(vs))
	for i, v := range vs {
		out[i] = v.Kind
	}
	return out
}

// TestFig4Contraction reproduces the paper's Fig. 4(c): with
// MaxLoopDepth=1, the contracted PSG is
// Root -> [Comp, Loop1[Comp], Branch[Send|Recv], Bcast].
func TestFig4Contraction(t *testing.T) {
	g := build(t, fig3, Options{MaxLoopDepth: 1, Contract: true})
	got := kindsOf(g.Root.Children)
	want := []Kind{KindComp, KindLoop, KindBranch, KindMPI}
	if len(got) != len(want) {
		t.Fatalf("root children kinds = %v, want %v\n%s", got, want, g.Render())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root child %d = %v, want %v\n%s", i, got[i], want[i], g.Render())
		}
	}
	loop := g.Root.Children[1]
	if len(loop.Children) != 1 || loop.Children[0].Kind != KindComp {
		t.Errorf("Loop1 children = %v; Loop1.1/1.2 should merge into one Comp", kindsOf(loop.Children))
	}
	branch := g.Root.Children[2]
	if len(branch.Children) != 2 || branch.ElseStart != 1 {
		t.Errorf("Branch children = %v ElseStart=%d", kindsOf(branch.Children), branch.ElseStart)
	}
	if branch.Children[0].Name != "mpi_send" || branch.Children[1].Name != "mpi_recv" {
		t.Errorf("branch arms = %s, %s", branch.Children[0].Name, branch.Children[1].Name)
	}
	if g.Root.Children[3].Name != "mpi_bcast" {
		t.Errorf("tail vertex = %s", g.Root.Children[3].Name)
	}
}

// TestFig4NoContraction checks the full inter-procedural graph keeps the
// nested loops.
func TestFig4NoContraction(t *testing.T) {
	g := build(t, fig3, Options{MaxLoopDepth: 10, Contract: false})
	loops := 0
	for _, v := range g.Vertices {
		if v.Kind == KindLoop {
			loops++
		}
	}
	if loops != 3 {
		t.Errorf("uncontracted graph has %d loops, want 3", loops)
	}
	if g.Stats.VerticesBefore != g.Stats.VerticesAfter {
		t.Errorf("no-contract build changed vertex count: %d -> %d",
			g.Stats.VerticesBefore, g.Stats.VerticesAfter)
	}
}

// TestMaxLoopDepthKeepsLoopsWithin checks loops within the depth bound
// survive even without MPI.
func TestMaxLoopDepthKeepsLoopsWithin(t *testing.T) {
	g := build(t, fig3, Options{MaxLoopDepth: 2, Contract: true})
	loops := 0
	for _, v := range g.Vertices {
		if v.Kind == KindLoop {
			loops++
		}
	}
	if loops != 3 {
		t.Errorf("MaxLoopDepth=2 kept %d loops, want 3\n%s", loops, g.Render())
	}
}

// TestBranchWithMPIPreserved: control structures enclosing MPI never
// contract.
func TestBranchWithMPIPreserved(t *testing.T) {
	g := build(t, `
func main() {
	for (var i = 0; i < 4; i = i + 1) {
		for (var j = 0; j < 4; j = j + 1) {
			if (mpi_rank() == 0) {
				mpi_barrier();
			}
		}
	}
}`, Options{MaxLoopDepth: 1, Contract: true})
	// Even with MaxLoopDepth=1, both loops and the branch survive because
	// the barrier is beneath them.
	var loops, branches, mpis int
	for _, v := range g.Vertices {
		switch v.Kind {
		case KindLoop:
			loops++
		case KindBranch:
			branches++
		case KindMPI:
			mpis++
		}
	}
	if loops != 2 || branches != 1 || mpis != 1 {
		t.Errorf("loops=%d branches=%d mpis=%d, want 2/1/1\n%s", loops, branches, mpis, g.Render())
	}
}

// TestBranchHoistingKeepsLoops: a non-MPI branch disappears but loops
// inside it survive (the Zeus-MP bval3d pattern).
func TestBranchHoistingKeepsLoops(t *testing.T) {
	g := build(t, `
func main() {
	if (mpi_rank() % 4 == 0) {
		for (var j = 0; j < 8; j = j + 1) {
			compute(1e3, 10, 10, 64);
		}
	}
	mpi_barrier();
}`, DefaultOptions())
	var branches, loops int
	for _, v := range g.Vertices {
		switch v.Kind {
		case KindBranch:
			branches++
		case KindLoop:
			loops++
		}
	}
	if branches != 0 {
		t.Errorf("non-MPI branch should be contracted, got %d\n%s", branches, g.Render())
	}
	if loops != 1 {
		t.Errorf("loop inside contracted branch must survive, got %d\n%s", loops, g.Render())
	}
}

func TestConsecutiveCompsMerge(t *testing.T) {
	g := build(t, `
func main() {
	var a = 1;
	var b = 2;
	var c = a + b;
	mpi_barrier();
	var d = c * 2;
	var e = d + 1;
}`, DefaultOptions())
	got := kindsOf(g.Root.Children)
	want := []Kind{KindComp, KindMPI, KindComp}
	if len(got) != len(want) {
		t.Fatalf("children = %v, want %v", got, want)
	}
	first := g.Root.Children[0]
	if len(first.MergedNodes) != 3 {
		t.Errorf("first Comp merged %d statements, want 3", len(first.MergedNodes))
	}
}

func TestRecursionFormsCycle(t *testing.T) {
	g := build(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() {
	var x = fib(10);
	mpi_barrier();
}`, DefaultOptions())
	var rec []*Vertex
	for _, v := range g.Vertices {
		if v.Kind == KindCall && strings.HasPrefix(v.Name, "recurse:") {
			rec = append(rec, v)
		}
	}
	if len(rec) != 2 {
		t.Fatalf("found %d recursive call vertices, want 2 (fib calls itself twice)\n%s", len(rec), g.Render())
	}
	// fib has one instance, and each recursive call in it enters it again.
	var fibs []*Instance
	for _, in := range g.instances {
		if in.Fn.Name == "fib" {
			fibs = append(fibs, in)
		}
	}
	if len(fibs) != 1 {
		t.Fatalf("%d instances of fib, want 1", len(fibs))
	}
	for _, v := range rec {
		if fibs[0].VertexOf(v.SiteNode) != v || fibs[0].CalleeInstance(v.SiteNode) != fibs[0] {
			t.Errorf("recursive call %s does not close the cycle back to fib's instance", v)
		}
	}
}

func TestMultipleCallSitesGetSeparateInstances(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func work(n) {
	for (var i = 0; i < n; i = i + 1) { compute(10, 1, 1, 64); }
}
func main() {
	work(5);
	mpi_barrier();
	work(10);
}`)
	g := MustBuild(prog)
	var loops []*Vertex
	for _, v := range g.Vertices {
		if v.Kind == KindLoop {
			loops = append(loops, v)
		}
	}
	if len(loops) != 2 {
		t.Fatalf("%d loop vertices, want 2 (one per call site)", len(loops))
	}
	if loops[0].Key == loops[1].Key {
		t.Error("two inlined instances share a vertex key")
	}
	var works []*Instance
	for _, in := range g.instances {
		if in.Fn.Name == "work" {
			works = append(works, in)
		}
	}
	loop := loops[0].SiteNode
	if len(works) != 2 || works[0].VertexOf(loop) == works[1].VertexOf(loop) {
		t.Errorf("%d instances of work, want 2 each with its own loop vertex", len(works))
	}
}

func TestKeysStableAcrossBuilds(t *testing.T) {
	prog := minilang.MustParse("t.mp", fig3)
	g1 := MustBuild(prog)
	g2 := MustBuild(prog)
	if len(g1.Vertices) != len(g2.Vertices) {
		t.Fatalf("vertex counts differ: %d vs %d", len(g1.Vertices), len(g2.Vertices))
	}
	for i := range g1.Vertices {
		if g1.Vertices[i].Key != g2.Vertices[i].Key {
			t.Errorf("vertex %d key differs: %q vs %q", i, g1.Vertices[i].Key, g2.Vertices[i].Key)
		}
	}
}

func TestVertexNavigation(t *testing.T) {
	g := build(t, fig3, Options{MaxLoopDepth: 1, Contract: true})
	loop := g.Root.Children[1]
	if loop.PrevSibling() != g.Root.Children[0] {
		t.Error("PrevSibling wrong")
	}
	if g.Root.Children[0].PrevSibling() != nil {
		t.Error("first child PrevSibling should be nil")
	}
	if loop.LastChild() == nil || loop.LastChild().Kind != KindComp {
		t.Error("LastChild wrong")
	}
	if loop.LoopDepth() != 1 {
		t.Errorf("LoopDepth = %d", loop.LoopDepth())
	}
	path := loop.Children[0].Path()
	if len(path) != 3 || path[0] != g.Root || path[2] != loop.Children[0] {
		t.Errorf("Path = %v", path)
	}
	if !g.Root.IsRoot() || loop.IsRoot() {
		t.Error("IsRoot wrong")
	}
}

func TestVertexByKeyAndIDs(t *testing.T) {
	g := build(t, fig3, DefaultOptions())
	for _, v := range g.Vertices {
		if got := g.byKey[v.Key]; got != v {
			t.Errorf("byKey[%q] = %v, want %v", v.Key, got, v)
		}
	}
	if g.byKey["nope"] != nil {
		t.Error("unknown key should return nil")
	}
}

func TestBuildLocal(t *testing.T) {
	prog := minilang.MustParse("t.mp", fig3)
	local, err := BuildLocal(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	var calls, mpis int
	for _, v := range local.Vertices {
		switch v.Kind {
		case KindCall:
			calls++
			if !strings.HasPrefix(v.Name, "call:") {
				t.Errorf("local call vertex name = %q", v.Name)
			}
		case KindMPI:
			mpis++
		}
	}
	if calls != 1 {
		t.Errorf("local graph of main has %d Call vertices, want 1 (foo not inlined)", calls)
	}
	if mpis != 1 {
		t.Errorf("local graph of main has %d MPI vertices, want 1 (bcast)", mpis)
	}
	if _, err := BuildLocal(prog, "nosuch"); err == nil {
		t.Error("BuildLocal of unknown function should error")
	}
}

// TestResolveIndirect pins ResolveIndirect as a lookup: the instance
// Build materialized for an address-taken target, the same pointer every
// time, and an error — never a mutation — for everything else.
func TestResolveIndirect(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func double(x) { return x * 2; }
func triple(x) {
	for (var i = 0; i < 3; i = i + 1) { compute(10, 1, 1, 64); }
	return x * 3;
}
func never(x) { return x; }
func main() {
	var f = &double;
	var h = &triple;
	var y = f(2);
	mpi_barrier();
}`)
	g := MustBuild(prog)
	inst := g.Main
	var site minilang.NodeID
	for _, v := range g.Vertices {
		if v.Kind == KindCall && g.Main.IndirectTargets(v.SiteNode) != nil {
			site = v.SiteNode
		}
	}
	if site == 0 {
		t.Fatal("no indirect site found")
	}
	before := len(g.Vertices)
	child, err := g.ResolveIndirect(inst, site, "triple")
	if err != nil {
		t.Fatal(err)
	}
	if child == nil || child.Fn.Name != "triple" {
		t.Fatalf("resolved instance wrong: %+v", child)
	}
	if child != inst.IndirectTargets(site)["triple"] {
		t.Error("resolution did not return the instance Build materialized")
	}
	if again, err := g.ResolveIndirect(inst, site, "triple"); err != nil || again != child {
		t.Errorf("second resolution = %p, %v; want the same instance %p", again, err, child)
	}
	// The loop inside triple was materialized under the call vertex.
	foundLoop := false
	for _, v := range g.Vertices {
		if v.Kind == KindLoop && strings.Contains(v.Key, "@triple") {
			foundLoop = true
		}
	}
	if !foundLoop {
		t.Error("triple's loop not materialized")
	}
	for _, tc := range []struct {
		name   string
		site   minilang.NodeID
		target string
		want   string
	}{
		{"never address-taken", site, "never", `"never", whose address is never taken`},
		{"unknown function", site, "nosuch", `psg: indirect call to unknown function "nosuch"`},
		{"not a site", minilang.NodeID(99999), "double", "psg: node 99999 in main is not an indirect call site"},
	} {
		got, err := g.ResolveIndirect(inst, tc.site, tc.target)
		if err == nil || got != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ResolveIndirect = %v, %v; want an error containing %q", tc.name, got, err, tc.want)
		}
	}
	if len(g.Vertices) != before || g.NumVIDs() != before {
		t.Errorf("resolution changed the graph: %d -> %d vertices, %d VIDs", before, len(g.Vertices), g.NumVIDs())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResolveIndirectConcurrent is the proof of the immutability
// invariant: 32 goroutines resolve and read the symbol table of one graph
// with no lock anywhere, and -race (CI runs this package under it) stays
// silent.
func TestResolveIndirectConcurrent(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func a(x) { return x + 1; }
func b(x) { return x + 2; }
func main() {
	var f = &a;
	var h = &b;
	var y = f(1);
	mpi_barrier();
}`)
	g := MustBuild(prog)
	var site minilang.NodeID
	for _, v := range g.Vertices {
		if v.Kind == KindCall && g.Main.IndirectTargets(v.SiteNode) != nil {
			site = v.SiteNode
		}
	}
	var wg sync.WaitGroup
	results := make([]*Instance, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := "a"
			if i%2 == 1 {
				target = "b"
			}
			inst, err := g.ResolveIndirect(g.Main, site, target)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = inst
			if vid, ok := g.VIDOf(g.KeyOf(VID(i % g.NumVIDs()))); !ok || g.VertexByVID(vid).Key != g.Keys()[vid] {
				t.Errorf("symbol table read %d inconsistent", i)
			}
		}(i)
	}
	wg.Wait()
	for i := 2; i < 32; i++ {
		if results[i] != results[i%2] {
			t.Fatalf("concurrent resolution returned different instances for the same target")
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMatchRenderedGraph(t *testing.T) {
	g := build(t, fig3, DefaultOptions())
	st := g.Stats
	if st.VerticesAfter != len(g.Vertices) {
		t.Errorf("VerticesAfter=%d but %d vertices", st.VerticesAfter, len(g.Vertices))
	}
	if st.VerticesBefore < st.VerticesAfter {
		t.Errorf("before=%d < after=%d", st.VerticesBefore, st.VerticesAfter)
	}
	total := st.Loops + st.Branches + st.Comps + st.MPIs + st.Calls + 1 // +1 root
	if total != st.VerticesAfter {
		t.Errorf("kind counts sum to %d, want %d", total, st.VerticesAfter)
	}
}

func TestDTOAndJSON(t *testing.T) {
	g := build(t, fig3, DefaultOptions())
	dto := g.ToDTO()
	if len(dto.Vertices) != len(g.Vertices) {
		t.Fatalf("DTO has %d vertices", len(dto.Vertices))
	}
	if dto.Vertices[0].Parent != -1 {
		t.Errorf("root parent = %d", dto.Vertices[0].Parent)
	}
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mpi_bcast") {
		t.Error("JSON missing mpi_bcast vertex")
	}
	if g.SizeBytes() != 32*len(g.Vertices) {
		t.Errorf("SizeBytes = %d", g.SizeBytes())
	}
}

// Property: for any MaxLoopDepth, invariants hold, all MPI vertices
// survive contraction, and contraction never increases vertex count.
func TestContractionProperty(t *testing.T) {
	prog := minilang.MustParse("t.mp", fig3)
	full, err := Build(prog, Options{MaxLoopDepth: 10, Contract: false})
	if err != nil {
		t.Fatal(err)
	}
	mpiCount := full.Stats.MPIs
	f := func(depthRaw uint8) bool {
		depth := int(depthRaw%12) + 1
		g, err := Build(prog, Options{MaxLoopDepth: depth, Contract: true})
		if err != nil {
			return false
		}
		if g.CheckInvariants() != nil {
			return false
		}
		if g.Stats.MPIs != mpiCount {
			return false
		}
		return g.Stats.VerticesAfter <= g.Stats.VerticesBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every AST loop statement maps to a vertex, and the mapping
// respects contraction (the vertex is a Loop when kept, a Comp when
// flattened).
func TestAttributionTotality(t *testing.T) {
	prog := minilang.MustParse("t.mp", fig3)
	g := MustBuild(prog)
	for _, inst := range g.instances {
		var walk func(s minilang.Stmt)
		walk = func(s minilang.Stmt) {
			if inst.VertexOf(s.ID()) == nil {
				t.Errorf("instance %s: statement %T at %s has no vertex", inst.Path, s, s.Pos())
			}
			switch st := s.(type) {
			case *minilang.IfStmt:
				walk(st.Then)
				if st.Else != nil {
					walk(st.Else)
				}
			case *minilang.ForStmt:
				walk(st.Body)
			case *minilang.WhileStmt:
				walk(st.Body)
			case *minilang.Block:
				for _, inner := range st.Stmts {
					walk(inner)
				}
			}
		}
		walk(inst.Fn.Body)
	}
}

// TestBuildPrematerializesIndirectTargets: address-taken functions are
// inlined under every indirect site at compile time, so resolving them
// at run time is a pure lookup that never grows the graph. This is what
// makes a compiled graph shareable by concurrent runs.
func TestBuildPrematerializesIndirectTargets(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func taken(x) {
	var a = x + 1;
	var b = a * 2;
	return b;
}
func main() {
	var f = &taken;
	var y = f(2);
	mpi_barrier();
}`)
	g := MustBuild(prog)
	found := false
	var site minilang.NodeID
	for _, v := range g.Vertices {
		if v.Kind == KindCall && g.Main.IndirectTargets(v.SiteNode) != nil {
			site = v.SiteNode
		}
		if strings.Contains(v.Key, "@taken") {
			found = true
		}
	}
	if !found {
		t.Fatal("address-taken target not pre-materialized at build time")
	}
	if g.Main.IndirectTargets(site)["taken"] == nil {
		t.Fatal("pre-materialized instance not registered for the site")
	}
	before := len(g.Vertices)
	child, err := g.ResolveIndirect(g.Main, site, "taken")
	if err != nil {
		t.Fatal(err)
	}
	if child == nil || child.Fn.Name != "taken" {
		t.Fatalf("resolved instance wrong: %+v", child)
	}
	if len(g.Vertices) != before {
		t.Errorf("runtime resolution of a pre-materialized target grew the graph: %d -> %d vertices",
			before, len(g.Vertices))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRejectsUndefinedCallee: a program that failed Check with "call
// of undefined function" still reaches Build through Parse's returned
// program; Build must name the function in an error, not panic.
func TestBuildRejectsUndefinedCallee(t *testing.T) {
	prog, err := minilang.Parse("t.mp", `
func helper() { nope(1); }
func main() { helper(); }`)
	if err == nil || !strings.Contains(err.Error(), "call of undefined function") {
		t.Fatalf("Parse error = %v, want a call of an undefined function", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Build panicked: %v", r)
		}
	}()
	g, err := Build(prog, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("Build = %v, %v; want an error naming \"nope\"", g, err)
	}
}
