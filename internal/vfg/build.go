package vfg

import (
	"sort"

	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
)

// builder holds what construction needs and the sealed graph does not.
type builder struct {
	*Graph
	// edges collects the dependences in the order they are found, in
	// blocks that never move once allocated; seal sorts them into the CSR
	// arrays.
	edges [][]rawEdge
	// callees caches per-callee facts.
	callees map[*ir.Function]*calleeInfo
	// muByVar maps the variables of the call being built to their mus;
	// one map serves every call.
	muByVar map[memssa.MemVar]*memssa.Def
	// lastFn/lastSpan cache the lookup-table block of the function whose
	// nodes were last looked up: nearly every lookup is in the function
	// being built.
	lastFn   *ir.Function
	lastSpan fnSpan
}

type rawEdge struct {
	from NodeID
	Edge
}

// Edge blocks start small, for small programs, and double up to a cap.
const (
	minEdgeBlock = 1 << 10
	maxEdgeBlock = 1 << 16
)

// calleeInfo holds the facts buildCall needs about a callee, computed
// once per callee rather than once per call site reaching it.
type calleeInfo struct {
	// rets are the values the callee returns, in block order.
	rets []ir.Value
	// out is the callee's set of virtual output variables.
	out map[memssa.MemVar]bool
	// retLabels are the labels of the callee's returns, ascending.
	retLabels []int
}

// Build constructs the VFG.
func Build(prog *ir.Program, pa *pointer.Result, mem *memssa.Info, opts Options) *Graph {
	g := &Graph{
		Prog:         prog,
		Pointer:      pa,
		Mem:          mem,
		Opts:         opts,
		fns:          make(map[*ir.Function]fnSpan, len(prog.Funcs)),
		sites:        []*ir.Call{nil},
		StoreUpdates: make(map[*memssa.Def]UpdateKind),
	}
	var nreg, nmem int32
	for _, fn := range prog.Funcs {
		sp := fnSpan{reg: nreg, nreg: int32(fn.NumRegs()), mem: nmem}
		if fi := mem.Funcs[fn]; fi != nil && !opts.TopLevelOnly {
			sp.nmem = int32(len(fi.AllDefs))
		}
		g.fns[fn] = sp
		nreg += sp.nreg
		nmem += sp.nmem
	}
	g.regNodes = noNodes(nreg)
	g.memNodes = noNodes(nmem)
	// Every node but the roots fills one slot of the lookup tables, so
	// their size bounds the node table's.
	g.Nodes = make([]Node, 0, 2+nreg+nmem)

	b := &builder{
		Graph:   g,
		callees: make(map[*ir.Function]*calleeInfo),
		muByVar: make(map[memssa.MemVar]*memssa.Def),
	}
	b.newNode(Node{Kind: NodeRootT})
	b.newNode(Node{Kind: NodeRootF})
	for _, fn := range prog.Funcs {
		if fn.HasBody {
			b.buildFunc(fn)
		}
	}
	b.linkParams()
	b.seal()
	return g
}

func noNodes(n int32) []NodeID {
	t := make([]NodeID, n)
	for i := range t {
		t[i] = NoNode
	}
	return t
}

// seal completes construction and freezes the graph: every register that
// could ever be queried gets its node, and the collected dependences are
// laid out, without repeats, in the CSR arrays along with their reverse.
func (b *builder) seal() {
	// Materialize nodes for every parameter and every defined register,
	// so post-build lookups (CriticalUses, instrumentation, Opt II) find
	// them. Operand registers are always defined by some instruction or
	// parameter, so this covers all of them.
	for _, fn := range b.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, prm := range fn.Params {
			b.regNode(prm)
		}
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				switch in := in.(type) {
				case *ir.Alloc:
					b.regNode(in.Dst)
				case *ir.Copy:
					b.regNode(in.Dst)
				case *ir.BinOp:
					b.regNode(in.Dst)
				case *ir.FieldAddr:
					b.regNode(in.Dst)
				case *ir.IndexAddr:
					b.regNode(in.Dst)
				case *ir.Phi:
					b.regNode(in.Dst)
				case *ir.Load:
					b.regNode(in.Dst)
				case *ir.Call:
					if in.Dst != nil {
						b.regNode(in.Dst)
					}
				}
			}
		}
	}

	// Count, then fill: a stable counting sort by source node keeps each
	// node's dependences in the order they were found.
	n := len(b.Nodes)
	start := make([]int32, n+1)
	for _, blk := range b.edges {
		for _, e := range blk {
			start[e.from+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	deps := make([]Edge, start[n])
	next := make([]int32, n)
	copy(next, start[:n])
	for _, blk := range b.edges {
		for _, e := range blk {
			deps[next[e.from]] = e.Edge
			next[e.from]++
		}
	}
	b.edges = nil

	// Dependences form a set: drop every repeat of a (target, kind, site)
	// triple, keeping first occurrences in order, compacting in place.
	// last[t] is v+1 once node v has kept an edge to t, so only an edge
	// whose target v already reaches needs the exact scan.
	last := next
	clear(last)
	w := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := start[v], start[v+1]
		start[v] = w
		stamp := int32(v + 1)
		for _, e := range deps[lo:hi] {
			if last[e.To] == stamp && containsEdge(deps[start[v]:w], e) {
				continue
			}
			last[e.To] = stamp
			deps[w] = e
			w++
		}
	}
	start[n] = w
	b.depStart, b.deps = start, deps[:w:w]

	// Users: each dependence v → t reversed, filled in node order.
	ustart := make([]int32, n+1)
	for _, e := range b.deps {
		ustart[e.To+1]++
	}
	for v := 0; v < n; v++ {
		ustart[v+1] += ustart[v]
	}
	users := make([]Edge, w)
	copy(next, ustart[:n])
	for v := 0; v < n; v++ {
		for _, e := range b.deps[start[v]:start[v+1]] {
			users[next[e.To]] = Edge{To: NodeID(v), Site: e.Site, Kind: e.Kind}
			next[e.To]++
		}
	}
	b.userStart, b.users = ustart, users
	b.sealed = true
}

func containsEdge(es []Edge, e Edge) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

func (b *builder) newNode(n Node) NodeID {
	b.Nodes = append(b.Nodes, n)
	return NodeID(len(b.Nodes) - 1)
}

func (b *builder) span(fn *ir.Function) fnSpan {
	if fn != b.lastFn {
		b.lastFn, b.lastSpan = fn, b.fns[fn]
	}
	return b.lastSpan
}

// regNode returns the node of a register definition, creating it on
// first use. Creation order is the graph's node numbering.
func (b *builder) regNode(r *ir.Register) NodeID {
	slot := &b.regNodes[b.span(r.Fn).reg+int32(r.ID)]
	if *slot == NoNode {
		*slot = b.newNode(Node{Kind: NodeReg, Reg: r})
	}
	return *slot
}

// memNode returns the node of a memory SSA definition, creating it on
// first use.
func (b *builder) memNode(d *memssa.Def) NodeID {
	slot := &b.memNodes[b.span(d.Fn).mem+d.ID]
	if *slot == NoNode {
		*slot = b.newNode(Node{Kind: NodeMem, Mem: d})
	}
	return *slot
}

// valueNode returns the node representing an operand's value: T for
// constants, function addresses and global addresses; the register node
// otherwise.
func (b *builder) valueNode(v ir.Value) NodeID {
	if r, ok := v.(*ir.Register); ok {
		return b.regNode(r)
	}
	return RootT
}

func (b *builder) addDep(from, to NodeID) { b.addDepE(from, to, EdgeIntra, 0) }

func (b *builder) addDepE(from, to NodeID, kind EdgeKind, site int32) {
	last := len(b.edges) - 1
	if last < 0 || len(b.edges[last]) == cap(b.edges[last]) {
		size := minEdgeBlock
		if last >= 0 {
			size = min(2*cap(b.edges[last]), maxEdgeBlock)
		}
		b.edges = append(b.edges, make([]rawEdge, 0, size))
		last++
	}
	b.edges[last] = append(b.edges[last], rawEdge{from, Edge{To: to, Site: site, Kind: kind}})
}

// concreteLocation reports whether a memory variable denotes exactly one
// runtime cell, making strong updates safe: a global cell, or a stack cell
// of a non-recursive function; and never part of a collapsed multi-cell
// object.
func (b *builder) concreteLocation(v memssa.MemVar) bool {
	if v.Obj.Collapsed() && v.Obj.Size > 1 {
		return false
	}
	if v.Obj.Site != nil && v.Obj.Site.DynSize != nil {
		return false
	}
	switch v.Obj.Kind {
	case ir.ObjGlobal:
		return true
	case ir.ObjStack:
		return !b.Pointer.Recursive(v.Obj.Fn)
	default:
		return false
	}
}

func (b *builder) buildFunc(fn *ir.Function) {
	fi := b.Mem.Funcs[fn]
	dom := cfg.NewDomTree(fn)

	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			switch in := in.(type) {
			case *ir.Alloc:
				b.buildAlloc(fi, in)
			case *ir.Copy:
				b.addDep(b.regNode(in.Dst), b.valueNode(in.Src))
			case *ir.BinOp:
				d := b.regNode(in.Dst)
				b.addDep(d, b.valueNode(in.X))
				b.addDep(d, b.valueNode(in.Y))
			case *ir.FieldAddr:
				b.addDep(b.regNode(in.Dst), b.valueNode(in.Base))
			case *ir.IndexAddr:
				d := b.regNode(in.Dst)
				b.addDep(d, b.valueNode(in.Base))
				b.addDep(d, b.valueNode(in.Idx))
			case *ir.Phi:
				d := b.regNode(in.Dst)
				for _, v := range in.Vals {
					b.addDep(d, b.valueNode(v))
				}
			case *ir.Load:
				b.buildLoad(fi, in)
			case *ir.Store:
				b.buildStore(fi, dom, in)
			case *ir.MemSet:
				b.buildMemSet(fi, in)
			case *ir.MemCopy:
				b.buildMemCopy(fi, in)
			case *ir.Call:
				b.buildCall(fi, in)
			}
		}
	}
	if b.Opts.TopLevelOnly || fi == nil {
		return
	}
	// Memory phis. fi.Phis is keyed by block; iterate the function's
	// block list rather than the map so node creation order — and with
	// it the graph's node numbering, which the golden ⊥ sets index — is
	// identical on every run.
	for _, blk := range fn.Blocks {
		for _, d := range fi.Phis[blk] {
			nd := b.memNode(d)
			for _, arg := range d.PhiArgs {
				b.addDep(nd, b.memNode(arg))
			}
		}
	}
	// Entry versions of variables that cannot pre-exist are defined.
	for _, d := range fi.AllDefs {
		if d.Kind == memssa.DefEntryUndef {
			b.addDep(b.memNode(d), RootT)
		}
	}
}

func (b *builder) buildAlloc(fi *memssa.FuncInfo, in *ir.Alloc) {
	// The returned pointer is always defined ([⊤-Alloc]).
	b.addDep(b.regNode(in.Dst), RootT)
	if b.Opts.TopLevelOnly || fi == nil {
		return
	}
	initRoot := RootF
	if in.Obj.ZeroInit {
		initRoot = RootT
	}
	for _, chi := range fi.Chis[in.Label()] {
		n := b.memNode(chi)
		b.addDep(n, initRoot)
		// Older instances of the same abstract object keep their state.
		b.addDep(n, b.memNode(chi.Prev))
	}
}

func (b *builder) buildLoad(fi *memssa.FuncInfo, in *ir.Load) {
	d := b.regNode(in.Dst)
	if b.Opts.TopLevelOnly || fi == nil {
		// Without address-taken tracking, loaded values are unknown.
		b.addDep(d, RootF)
		return
	}
	mus := fi.Mus[in.Label()]
	if len(mus) == 0 {
		// No statically visible target (e.g. empty points-to set): the
		// value cannot be proven defined.
		b.addDep(d, RootF)
		return
	}
	for _, mu := range mus {
		b.addDep(d, b.memNode(mu.Use))
	}
}

func (b *builder) buildStore(fi *memssa.FuncInfo, dom *cfg.DomTree, in *ir.Store) {
	if b.Opts.TopLevelOnly || fi == nil {
		return
	}
	valNode := b.valueNode(in.Val)
	uniq, isUniq := b.Pointer.UniqueTarget(in.Addr)
	for _, chi := range fi.Chis[in.Label()] {
		n := b.memNode(chi)
		b.addDep(n, valNode)
		kind := UpdateWeakMulti
		if isUniq {
			uvar := memssa.MemVar{Obj: uniq.Obj, Field: b.Pointer.CanonField(uniq.Obj, uniq.Field)}
			switch {
			case uvar == chi.Var && b.concreteLocation(uvar):
				// Strong update: the old version is killed.
				kind = UpdateStrong
			case uvar == chi.Var && !b.Opts.NoSemiStrong && b.semiStrong(dom, in, chi, n):
				kind = UpdateSemiStrong
			default:
				kind = UpdateWeakSingleton
				b.addDep(n, b.memNode(chi.Prev))
			}
		} else {
			b.addDep(n, b.memNode(chi.Prev))
		}
		b.StoreUpdates[chi] = kind
	}
}

// buildMemSet wires a memset intrinsic's chis: every targeted variable's
// new version flows from the fill value and — because the runtime range
// may not cover the variable — from the incoming version. The always-weak
// treatment keeps the chis sound for any length, including zero.
func (b *builder) buildMemSet(fi *memssa.FuncInfo, in *ir.MemSet) {
	if b.Opts.TopLevelOnly || fi == nil {
		return
	}
	valNode := b.valueNode(in.Val)
	for _, chi := range fi.Chis[in.Label()] {
		n := b.memNode(chi)
		b.addDep(n, valNode)
		b.addDep(n, b.memNode(chi.Prev))
	}
}

// buildMemCopy wires a memcpy/memmove intrinsic's chis: every targeted
// variable's new version flows from the source variables' reaching
// versions (the instruction's mus) and from its own incoming version
// (always weak, as for memset). An empty source points-to set means the
// copied values are statically unknown and therefore possibly undefined.
func (b *builder) buildMemCopy(fi *memssa.FuncInfo, in *ir.MemCopy) {
	if b.Opts.TopLevelOnly || fi == nil {
		return
	}
	mus := fi.Mus[in.Label()]
	for _, chi := range fi.Chis[in.Label()] {
		n := b.memNode(chi)
		if len(mus) == 0 {
			b.addDep(n, RootF)
		}
		for _, mu := range mus {
			b.addDep(n, b.memNode(mu.Use))
		}
		b.addDep(n, b.memNode(chi.Prev))
	}
}

// semiStrong attempts the semi-strong update of §3.2: if the allocation
// site of the stored-to object produces a pointer register whose
// definition dominates the store, the store definitely overwrites the
// freshly allocated cell, so the value flow is rerouted to the version
// before the allocation's chi, bypassing the allocation's own undefined
// initial state. Returns true (and adds the rerouted edge) on success.
func (b *builder) semiStrong(dom *cfg.DomTree, st *ir.Store, chi *memssa.Def, n NodeID) bool {
	// The rule is only sound when the variable denotes exactly one cell
	// per instance: the store then definitely overwrites the fresh cell.
	// A collapsed multi-cell object (array, dynamic allocation) is a
	// summary of many cells, of which the store writes only one.
	obj := chi.Var.Obj
	if obj.Collapsed() && obj.Size > 1 {
		return false
	}
	site := obj.Site
	if site == nil || site.DynSize != nil {
		return false
	}
	if site.Parent() == nil || site.Parent().Fn != st.Parent().Fn {
		return false
	}
	if !dom.InstrDominates(site, st) {
		return false
	}
	// Find the version of this variable before the allocation's chi.
	fi := b.Mem.Funcs[st.Parent().Fn]
	for _, allocChi := range fi.Chis[site.Label()] {
		if allocChi.Var == chi.Var {
			b.addDep(n, b.memNode(allocChi.Prev))
			b.SemiStrongCuts++
			return true
		}
	}
	return false
}

func (b *builder) buildCall(fi *memssa.FuncInfo, in *ir.Call) {
	switch in.Builtin {
	case ir.BuiltinInput:
		b.addDep(b.regNode(in.Dst), RootT)
		return
	case ir.BuiltinPrint, ir.BuiltinFree:
		return
	}
	callees := b.Pointer.Callees(in)
	if len(callees) == 0 || (in.Direct() != nil && !in.Direct().HasBody) {
		// External call: modelled as returning a defined value.
		if in.Dst != nil {
			b.addDep(b.regNode(in.Dst), RootT)
		}
		return
	}
	// The call's dense site id, assigned when it gets its first
	// interprocedural edge.
	var siteID int32
	site := func() int32 {
		if siteID == 0 {
			b.sites = append(b.sites, in)
			siteID = int32(len(b.sites) - 1)
		}
		return siteID
	}
	// The call's mus, keyed by variable, and which of its chis already
	// depend on their incoming version, are facts of the call: computed
	// once, not once per callee.
	var chis []*memssa.Def
	var prevLinked []bool
	for _, callee := range callees {
		if !callee.HasBody {
			if in.Dst != nil {
				b.addDep(b.regNode(in.Dst), RootT)
			}
			continue
		}
		cf := b.calleeFacts(callee)
		// Formal parameters depend on actuals (call edges).
		for i, prm := range callee.Params {
			if i < len(in.Args) {
				b.addDepE(b.regNode(prm), b.valueNode(in.Args[i]), EdgeCall, site())
			}
		}
		// Return value flows to the call result (ret edges).
		if in.Dst != nil {
			for _, v := range cf.rets {
				b.addDepE(b.regNode(in.Dst), b.valueNode(v), EdgeRet, site())
			}
		}
		cfi := b.Mem.Funcs[callee]
		if b.Opts.TopLevelOnly || fi == nil || cfi == nil {
			continue
		}
		if prevLinked == nil {
			clear(b.muByVar)
			for _, mu := range fi.Mus[in.Label()] {
				b.muByVar[mu.Var] = mu.Use
			}
			chis = fi.Chis[in.Label()]
			prevLinked = make([]bool, len(chis))
		}
		// Virtual input parameters: callee entry versions depend on the
		// caller's current versions at the call site.
		for _, v := range cfi.InVars {
			entry := cfi.EntryDefs[v]
			if entry == nil {
				continue
			}
			if use, ok := b.muByVar[v]; ok {
				b.addDepE(b.memNode(entry), b.memNode(use), EdgeCall, site())
			}
		}
		// Virtual output parameters: the caller's post-call versions
		// depend on the callee's versions at each return, visited in
		// ascending ret-label order so node creation and edge order (and
		// with them the graph's node numbering) are identical on every
		// run.
		for i, chi := range chis {
			n := b.memNode(chi)
			if cf.out[chi.Var] {
				for _, l := range cf.retLabels {
					if d, ok := cfi.RetVersions[l][chi.Var]; ok {
						b.addDepE(n, b.memNode(d), EdgeRet, site())
					}
				}
			} else if !prevLinked[i] {
				// Some other callee modifies this variable; through this
				// callee it is unchanged. The edge is the same for every
				// such callee, so it is added once.
				prevLinked[i] = true
				b.addDep(n, b.memNode(chi.Prev))
			}
		}
	}
}

func (b *builder) calleeFacts(callee *ir.Function) *calleeInfo {
	if cf, ok := b.callees[callee]; ok {
		return cf
	}
	cf := &calleeInfo{}
	for _, blk := range callee.Blocks {
		for _, ci := range blk.Instrs {
			if r, ok := ci.(*ir.Ret); ok && r.Val != nil {
				cf.rets = append(cf.rets, r.Val)
			}
		}
	}
	if cfi := b.Mem.Funcs[callee]; cfi != nil && !b.Opts.TopLevelOnly {
		cf.out = make(map[memssa.MemVar]bool, len(cfi.OutVars))
		for _, v := range cfi.OutVars {
			cf.out[v] = true
		}
		for l := range cfi.RetVersions {
			cf.retLabels = append(cf.retLabels, l)
		}
		sort.Ints(cf.retLabels)
	}
	b.callees[callee] = cf
	return cf
}

// linkParams gives defined roots to the parameters and entry memory
// versions of functions that are never called (program entry points).
func (b *builder) linkParams() {
	for _, fn := range b.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		if len(b.Pointer.Callers(fn)) > 0 {
			continue
		}
		for _, prm := range fn.Params {
			b.addDep(b.regNode(prm), RootT)
		}
		if b.Opts.TopLevelOnly {
			continue
		}
		if fi := b.Mem.Funcs[fn]; fi != nil {
			// At program start, globals are initialized and no heap
			// instances exist.
			for _, v := range fi.InVars {
				if d := fi.EntryDefs[v]; d != nil {
					b.addDep(b.memNode(d), RootT)
				}
			}
		}
	}
}
