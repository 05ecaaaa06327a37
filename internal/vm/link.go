package vm

import (
	"fmt"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
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

	// ctx holds the attribution vertex's VID per attribution site.
	ctx []mpisim.Ctx
	// calls holds the callee Link per direct call site.
	calls []*Link
	// indirect holds the pre-materialized targets per indirect site, by
	// function id; a site without targets has no table.
	indirect [][]*Link
}

// Compile lowers every function of prog to bytecode and links the
// instance tree rooted at graph.Main. TestLoweringAgreesWithIR holds the
// bytecode to internal/ir's independent lowering of the same functions.
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
	c := newCompiler(fns)
	for i, fn := range prog.Funcs {
		end := prog.Nodes() + 1
		if i+1 < len(prog.Funcs) {
			end = int(prog.Funcs[i+1].ID())
		}
		code, err := c.compileFunc(fn, max(end-int(fn.ID()), 0))
		if err != nil {
			return nil, err
		}
		p.codes[fn.Name] = code
	}
	if graph.Main == nil {
		return nil, fmt.Errorf("vm: PSG has no main instance")
	}
	var err error
	if p.main, err = p.link(graph.Main, map[*psg.Instance]*Link{}); err != nil {
		return nil, err
	}
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
// in-progress Link. An attribution site with no vertex in its instance is
// an error: psg.Build gives every statement and call node one, so a
// context move never has to keep the previous context.
func (p *Program) link(inst *psg.Instance, links map[*psg.Instance]*Link) (*Link, error) {
	if l, ok := links[inst]; ok {
		return l, nil
	}
	code := p.codes[inst.Fn.Name]
	l := &Link{
		inst:     inst,
		code:     code,
		ctx:      make([]mpisim.Ctx, len(code.ctxNodes)),
		calls:    make([]*Link, len(code.calls)),
		indirect: make([][]*Link, len(code.indirects)),
	}
	links[inst] = l
	for i, id := range code.ctxNodes {
		v := inst.VertexOf(id)
		if v == nil {
			return nil, fmt.Errorf("vm: %s: attribution site %d (node %d) has no vertex in instance %s", inst.Fn.Name, i, id, inst.Path)
		}
		l.ctx[i] = mpisim.Ctx(v.VID)
	}
	var err error
	for i := range code.calls {
		if child := inst.CalleeInstance(code.calls[i].node); child != nil {
			if l.calls[i], err = p.link(child, links); err != nil {
				return nil, err
			}
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
				if l.indirect[i][id], err = p.link(ti, links); err != nil {
					return nil, err
				}
			}
		}
	}
	return l, nil
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
