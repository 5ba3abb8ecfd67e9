package workload

import (
	"fmt"

	"github.com/valueflow/usher/internal/ir"
)

// XLProfile parameterizes the IR-level constraint-graph generator behind
// the million-constraint solver-scaling work. Unlike LargeProfiles —
// MiniC sources pushed through the whole frontend — XL programs are
// built directly as ir.Program: at 10x–100x the large profiles'
// constraint counts, parsing and lowering would dominate the very solve
// being measured, and the solver consumes IR, not source.
//
// The three structures stress the solver's three main costs:
//
//   - A function-pointer table with large fan-out: FPSites dispatchers
//     call through a table holding FPTargets targets, so on-the-fly
//     resolution wires FPSites×FPTargets (call, callee) pairs — each
//     with an argument and a return copy edge. This quadratic term is
//     what pushes the constraint count past a million, and the resulting
//     wide worklist rounds are dominated by word-level unions.
//   - Deep forwarding call chains: every new fact at a chain head
//     crosses ChainDepth parameter and return edges, maximizing the
//     round count (difference propagation's worst case).
//   - Heap-allocation rings: each ring function allocates a two-cell
//     heap node, stores its pointer parameter into the node, reloads it
//     and forwards to the next function in the ring. The parameter /
//     field / load registers form copy cycles through memory — online
//     cycle elimination's target — and every function contributes a
//     distinct allocation site (load/store/field complex constraints).
//
// Generation is pure construction: deterministic, no randomness, no
// source text.
type XLProfile struct {
	Name string
	// FPTargets is the function-pointer table size; FPSites the number
	// of dispatch helpers calling through it.
	FPTargets int
	FPSites   int
	// ChainGroups deep forwarding chains of ChainDepth functions each.
	ChainGroups int
	ChainDepth  int
	// Rings allocation rings of RingLen functions each.
	Rings   int
	RingLen int
	// Cells is the number of address-seeded int globals; points-to sets
	// grow toward this bound.
	Cells int

	// The Undef* fields parameterize the resolve-stress undef-dispatch
	// structure used by the Γ-resolution scaling profiles
	// (ResolveProfiles). They are zero in the solver profiles, and a
	// zero UndefSites disables the structure entirely, so the solver
	// profiles' generated IR is byte-identical to what it was before
	// these fields existed.
	//
	// The structure stresses Γ resolution's calling contexts:
	// UndefSites site functions each load an uninitialized stack cell —
	// the ⊥ seed — and pass the result to every one of UndefTargets
	// worker functions through direct calls; each worker body is a chain
	// of UndefBodyLen binops folding the parameter into itself, ending in
	// a ret of the chain tail. A resolver that re-walks each worker body
	// once per calling context pays sites × targets × body states;
	// vfg.ResolveWith walks each body once, on its first entry, and pays
	// only a return-exit lookup for every later context.
	UndefSites   int
	UndefTargets int
	UndefBodyLen int
}

// XLProfiles is the solver-scaling XL suite. solver-xl is the
// million-constraint acceptance profile; the smaller siblings keep tests
// and -short runs fast while exercising identical structure.
var XLProfiles = []XLProfile{
	{Name: "solver-xl-small", FPTargets: 160, FPSites: 60, ChainGroups: 8, ChainDepth: 40, Rings: 10, RingLen: 12, Cells: 64},
	{Name: "solver-xl-medium", FPTargets: 400, FPSites: 200, ChainGroups: 20, ChainDepth: 80, Rings: 30, RingLen: 24, Cells: 128},
	{Name: "solver-xl", FPTargets: 1000, FPSites: 520, ChainGroups: 50, ChainDepth: 100, Rings: 100, RingLen: 50, Cells: 256},
}

// ResolveProfiles is the Γ-resolution scaling suite: mostly-empty
// solver structure (the pointer phase is not what is being measured)
// with a large undef-dispatch fan-out whose dense resolution cost is
// sites × targets × body length. resolve-xl is the acceptance profile;
// the small sibling keeps tests and -short runs fast.
var ResolveProfiles = []XLProfile{
	{Name: "resolve-xl-small", Cells: 16, UndefSites: 40, UndefTargets: 24, UndefBodyLen: 60},
	{Name: "resolve-xl", Cells: 32, UndefSites: 150, UndefTargets: 80, UndefBodyLen: 300},
}

// XLByName returns the named XL profile, searching the solver and
// resolve suites.
func XLByName(name string) (XLProfile, bool) {
	for _, ps := range [][]XLProfile{XLProfiles, ResolveProfiles} {
		for _, p := range ps {
			if p.Name == name {
				return p, true
			}
		}
	}
	return XLProfile{}, false
}

// BuildXL constructs the profile's program directly in IR.
func BuildXL(p XLProfile) *ir.Program {
	g := &xlGen{p: p, prog: ir.NewProgram()}
	g.globals()
	targets := g.fpTargets()
	fptab := g.fpTable(targets)
	dispatchers := g.dispatchers(fptab)
	chains := g.chains()
	rings := g.rings()
	usites := g.undefDispatch()
	g.root(dispatchers, chains, rings, usites)
	return g.prog
}

type xlGen struct {
	p     XLProfile
	prog  *ir.Program
	cells []*ir.Object
	slots []*ir.Object
}

// cellAddr returns the address of cell i (mod the cell count).
func (g *xlGen) cellAddr(i int) *ir.GlobalAddr {
	return &ir.GlobalAddr{Obj: g.cells[i%len(g.cells)]}
}

// newFunc creates a one-parameter, single-block function ready for
// instruction appends.
func (g *xlGen) newFunc(name string) (*ir.Function, *ir.Block, *ir.Register) {
	fn := &ir.Function{Name: name, HasBody: true}
	g.prog.AddFunc(fn)
	param := fn.NewReg("p")
	fn.Params = []*ir.Register{param}
	b := fn.NewBlock("entry")
	return fn, b, param
}

// globals creates the address-seeded cells and the pointer slots the
// function-pointer targets store their arguments into.
func (g *xlGen) globals() {
	g.cells = make([]*ir.Object, g.p.Cells)
	for i := range g.cells {
		o := g.prog.NewObject(fmt.Sprintf("cell_%d", i), 1, ir.ObjGlobal)
		o.ZeroInit = true
		g.prog.Globals = append(g.prog.Globals, o)
		g.cells[i] = o
	}
	nslots := g.p.Cells/4 + 1
	g.slots = make([]*ir.Object, nslots)
	for i := range g.slots {
		o := g.prog.NewObject(fmt.Sprintf("gp_%d", i), 1, ir.ObjGlobal)
		o.ZeroInit = true
		g.prog.Globals = append(g.prog.Globals, o)
		g.slots[i] = o
	}
}

// fpTargets emits the dispatch targets: each stores its argument into a
// pointer slot and returns a distinct cell's address, so every resolved
// (site, target) pair contributes one argument and one return copy edge
// and grows the dispatch sites' points-to sets.
func (g *xlGen) fpTargets() []*ir.Function {
	targets := make([]*ir.Function, g.p.FPTargets)
	for t := range targets {
		fn, b, param := g.newFunc(fmt.Sprintf("fptarget_%d", t))
		b.Append(ir.NewStore(&ir.GlobalAddr{Obj: g.slots[t%len(g.slots)]}, param))
		// Return the cell address through a private register: the return
		// copy edge is then distinct per (site, target) pair instead of
		// deduplicating through the shared global-address node.
		rv := fn.NewReg("rv")
		b.Append(ir.NewCopy(rv, g.cellAddr(t)))
		b.Append(ir.NewRet(rv))
		ir.ComputeCFG(fn)
		targets[t] = fn
	}
	return targets
}

// fpTable creates the table object (a single collapsed cell holding
// every target's address) and the initializer that fills it.
func (g *xlGen) fpTable(targets []*ir.Function) *ir.Object {
	fptab := g.prog.NewObject("fptab", 1, ir.ObjGlobal)
	fptab.ZeroInit = true
	g.prog.Globals = append(g.prog.Globals, fptab)
	fn := &ir.Function{Name: "fpinit", HasBody: true}
	g.prog.AddFunc(fn)
	b := fn.NewBlock("entry")
	for _, t := range targets {
		b.Append(ir.NewStore(&ir.GlobalAddr{Obj: fptab}, &ir.FuncValue{Fn: t}))
	}
	b.Append(ir.NewRet(nil))
	ir.ComputeCFG(fn)
	return fptab
}

// dispatchers emit the indirect-call sites: load a function pointer from
// the table, call it with the pointer parameter, return the result. Each
// site resolves against every table target.
func (g *xlGen) dispatchers(fptab *ir.Object) []*ir.Function {
	sites := make([]*ir.Function, g.p.FPSites)
	for s := range sites {
		fn, b, param := g.newFunc(fmt.Sprintf("dispatch_%d", s))
		f := fn.NewReg("f")
		b.Append(ir.NewLoad(f, &ir.GlobalAddr{Obj: fptab}))
		r := fn.NewReg("r")
		b.Append(ir.NewCall(r, f, []ir.Value{param}, ir.NotBuiltin))
		b.Append(ir.NewRet(r))
		ir.ComputeCFG(fn)
		sites[s] = fn
	}
	return sites
}

// chains emit deep linear forwarding chains; heads are returned for the
// root to feed.
func (g *xlGen) chains() []*ir.Function {
	heads := make([]*ir.Function, g.p.ChainGroups)
	for c := range heads {
		fns := make([]*ir.Function, g.p.ChainDepth)
		for k := range fns {
			fn, _, _ := g.newFunc(fmt.Sprintf("chain_%d_%d", c, k))
			fns[k] = fn
		}
		for k, fn := range fns {
			b := fn.Blocks[0]
			param := fn.Params[0]
			if k == len(fns)-1 {
				b.Append(ir.NewRet(param))
			} else {
				r := fn.NewReg("r")
				b.Append(ir.NewCall(r, &ir.FuncValue{Fn: fns[k+1]}, []ir.Value{param}, ir.NotBuiltin))
				b.Append(ir.NewRet(r))
			}
			ir.ComputeCFG(fn)
		}
		heads[c] = fns[0]
	}
	return heads
}

// rings emit heap-allocation rings: every member allocates its own
// two-cell heap node, stores the incoming pointer through a field,
// reloads it and forwards to the next member, closing a copy cycle that
// runs through memory.
func (g *xlGen) rings() []*ir.Function {
	heads := make([]*ir.Function, g.p.Rings)
	for r := range heads {
		fns := make([]*ir.Function, g.p.RingLen)
		for k := range fns {
			fn, _, _ := g.newFunc(fmt.Sprintf("ring_%d_%d", r, k))
			fns[k] = fn
		}
		for k, fn := range fns {
			b := fn.Blocks[0]
			param := fn.Params[0]
			obj := g.prog.NewObject(fmt.Sprintf("node_%d_%d", r, k), 2, ir.ObjHeap)
			obj.Fn = fn
			n := fn.NewReg("n")
			b.Append(ir.NewAlloc(n, obj))
			fa := fn.NewReg("fa")
			b.Append(ir.NewFieldAddr(fa, n, 1))
			b.Append(ir.NewStore(fa, param))
			l := fn.NewReg("l")
			b.Append(ir.NewLoad(l, fa))
			res := fn.NewReg("res")
			b.Append(ir.NewCall(res, &ir.FuncValue{Fn: fns[(k+1)%len(fns)]}, []ir.Value{l}, ir.NotBuiltin))
			b.Append(ir.NewRet(res))
			ir.ComputeCFG(fn)
		}
		heads[r] = fns[0]
	}
	return heads
}

// undefDispatch emits the resolve-stress structure (see the Undef*
// field docs): UndefTargets binop-chain workers and UndefSites site
// functions that load an uninitialized stack cell and hand the ⊥ value
// to every worker. Returns the site functions for the root to call;
// nil (and no IR at all) when the profile does not request it.
func (g *xlGen) undefDispatch() []*ir.Function {
	if g.p.UndefSites == 0 {
		return nil
	}
	targets := make([]*ir.Function, g.p.UndefTargets)
	for t := range targets {
		fn, b, param := g.newFunc(fmt.Sprintf("utarget_%d", t))
		cur := ir.Value(param)
		for k := 0; k < g.p.UndefBodyLen; k++ {
			r := fn.NewReg(fmt.Sprintf("b%d", k))
			b.Append(ir.NewBinOp(r, ir.OpAdd, cur, cur))
			cur = r
		}
		b.Append(ir.NewRet(cur))
		ir.ComputeCFG(fn)
		targets[t] = fn
	}
	sites := make([]*ir.Function, g.p.UndefSites)
	for s := range sites {
		fn, b, _ := g.newFunc(fmt.Sprintf("usite_%d", s))
		// The ⊥ seed: an uninitialized (non-ZeroInit) stack cell read
		// before any store. In the full graph the load's mu reaches the
		// alloc's undefined initial version; in the top-level-only graph
		// every load is unknown. Both variants seed ⊥ here.
		obj := g.prog.NewObject(fmt.Sprintf("ucell_%d", s), 1, ir.ObjStack)
		obj.Fn = fn
		addr := fn.NewReg("ua")
		b.Append(ir.NewAlloc(addr, obj))
		x := fn.NewReg("ux")
		b.Append(ir.NewLoad(x, addr))
		for _, t := range targets {
			r := fn.NewReg("ur")
			b.Append(ir.NewCall(r, &ir.FuncValue{Fn: t}, []ir.Value{x}, ir.NotBuiltin))
		}
		b.Append(ir.NewRet(nil))
		ir.ComputeCFG(fn)
		sites[s] = fn
	}
	return sites
}

// root wires everything reachable from one entry function, feeding each
// structure a spread of distinct cell addresses.
func (g *xlGen) root(dispatchers, chains, rings, usites []*ir.Function) {
	fn := &ir.Function{Name: "main", HasBody: true}
	g.prog.AddFunc(fn)
	b := fn.NewBlock("entry")
	init := g.prog.FuncByName("fpinit")
	b.Append(ir.NewCall(nil, &ir.FuncValue{Fn: init}, nil, ir.NotBuiltin))
	feed := func(fns []*ir.Function, stride int) {
		for i, f := range fns {
			r := fn.NewReg("r")
			b.Append(ir.NewCall(r, &ir.FuncValue{Fn: f}, []ir.Value{g.cellAddr(i * stride)}, ir.NotBuiltin))
		}
	}
	feed(dispatchers, 1)
	feed(chains, 3)
	feed(rings, 7)
	feed(usites, 11)
	b.Append(ir.NewRet(nil))
	ir.ComputeCFG(fn)
}
