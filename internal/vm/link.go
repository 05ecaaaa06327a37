package vm

import (
	"fmt"

	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// Program is a MiniMP program compiled to bytecode and linked against a
// PSG. The bytecode of each function is compiled once and shared by all
// of its instances; the Link side tables carry everything that differs
// per instance (attribution vertices and callee instances), so a
// Program is immutable after Compile and safe to execute from many
// ranks and many worlds concurrently.
type Program struct {
	prog  *minilang.Program
	graph *psg.Graph
	codes map[string]*Code
	main  *Link
	// stackRegs and stackDepth are the registers and frames of the deepest
	// call path that does not recurse: what a rank's machine is given up
	// front (only a recursive program grows past them at run time).
	stackRegs, stackDepth int32
}

// Link binds one function's shared bytecode to one psg.Instance. Its
// tables are indexed by the site indices the instructions carry.
type Link struct {
	inst *psg.Instance
	code *Code

	// ctx holds the attribution vertex per opSetCtx site; nil means the
	// node was contracted away in this instance and the context keeps
	// its previous value, exactly like the interpreter's setCtx.
	ctx []*psg.Vertex
	// calls holds the callee Link per direct call site.
	calls []*Link
	// indirect holds the pre-materialized targets per indirect site, by
	// function id; a site without targets has no table.
	indirect [][]*Link
}

// Compile lowers every function of prog to bytecode, cross-checks the
// lowering against the internal/ir CFG (see verify.go), and links the
// instance tree rooted at graph.Main.
func Compile(prog *minilang.Program, graph *psg.Graph) (*Program, error) {
	p := &Program{
		prog:  prog,
		graph: graph,
		codes: make(map[string]*Code, len(prog.Funcs)),
	}
	// A function's id — what a function reference holds and Link.indirect
	// is indexed by — is its place in prog.Funcs.
	fns := make([]string, len(prog.Funcs))
	for id, fn := range prog.Funcs {
		fns[id] = fn.Name
	}
	for _, fn := range prog.Funcs {
		code, err := compileFunc(fn, fns)
		if err != nil {
			return nil, err
		}
		if err := verifyLowering(fn, code); err != nil {
			return nil, err
		}
		p.codes[fn.Name] = code
	}
	if graph.Main == nil {
		return nil, fmt.Errorf("vm: PSG has no main instance")
	}
	p.main = p.link(graph.Main, map[*psg.Instance]*Link{})
	p.stackRegs, p.stackDepth = stackNeed(p.main, map[*Link]bool{})
	return p, nil
}

// stackNeed returns the registers and frames the deepest call path from l
// needs. A link already on the path (recursion) adds nothing; the instance
// tree has no other sharing, so the walk is linear.
func stackNeed(l *Link, onPath map[*Link]bool) (regs, depth int32) {
	if onPath[l] {
		return 0, 0
	}
	onPath[l] = true
	below := func(child *Link) {
		if child != nil {
			r, d := stackNeed(child, onPath)
			regs, depth = max(regs, r), max(depth, d)
		}
	}
	for _, child := range l.calls {
		below(child)
	}
	for _, targets := range l.indirect {
		for _, child := range targets {
			below(child)
		}
	}
	delete(onPath, l)
	return l.code.nSlots + regs, 1 + depth
}

// link returns the Link for inst, building it (and, recursively, its
// callees) on first use. links is Compile's memo; the entry is installed
// before the recursion so recursive call cycles resolve to the
// in-progress Link.
func (p *Program) link(inst *psg.Instance, links map[*psg.Instance]*Link) *Link {
	if l, ok := links[inst]; ok {
		return l
	}
	code := p.codes[inst.Fn.Name]
	l := &Link{
		inst:     inst,
		code:     code,
		ctx:      make([]*psg.Vertex, len(code.ctxNodes)),
		calls:    make([]*Link, len(code.calls)),
		indirect: make([][]*Link, len(code.indirects)),
	}
	links[inst] = l
	for i, id := range code.ctxNodes {
		l.ctx[i] = inst.VertexOf(id)
	}
	for i := range code.calls {
		if child := inst.CalleeInstance(code.calls[i].node); child != nil {
			l.calls[i] = p.link(child, links)
		}
	}
	for i := range code.indirects {
		targets := inst.IndirectTargets(code.indirects[i].node)
		if len(targets) == 0 {
			continue
		}
		l.indirect[i] = make([]*Link, len(code.fns))
		for id, name := range code.fns {
			if ti := targets[name]; ti != nil {
				l.indirect[i][id] = p.link(ti, links)
			}
		}
	}
	return l
}

// missingTarget reports an indirect call whose target has no Link. No
// program can get here — function values come only from &name, and
// psg.Build materializes every address-taken function under every
// indirect site — so this is the cold end of opCallInd, kept to fail
// with the interpreter's exact messages rather than a nil dereference.
func (p *Program) missingTarget(l *Link, site int32, target string) {
	is := &l.code.indirects[site]
	if p.prog.Func(target) == nil {
		panic(fmt.Sprintf("%s: indirect call to unknown function %q", is.pos, target))
	}
	_, err := p.graph.ResolveIndirect(l.inst, is.node, target)
	panic(fmt.Sprintf("%s: %v", is.pos, err))
}
