package pointer

import (
	"github.com/valueflow/usher/internal/ir"
)

// This file preserves the original map-based Andersen solver as the
// reference implementation for differential testing. It is the solver the
// repository shipped before the bit-vector rewrite in solver.go: points-to
// sets are map[int]struct{}, deltas are slices, and there is no cycle
// elimination. It lives in a test file because no binary runs it:
// AnalyzeLegacy exports it to the external tests, and the A/B tests
// (ab_test.go) diff its results against the production solver over the
// corpus, the workload generators and randprog seeds. It is deliberately
// kept simple and obviously correct rather than fast.

// AnalyzeLegacy runs the map-based reference solver. Its results are what
// the production solver is diffed against; Analyze is the only solver
// outside the tests.
func AnalyzeLegacy(prog *ir.Program) *Result {
	s := newLegacySolver(prog)
	s.generate()
	s.solve()
	s.freeze()
	res := finishResult(prog, s, s.callees)
	res.Stats = SolverStats{Nodes: len(s.nodes)}
	return res
}

// node keys
type regKey struct {
	fn *ir.Function
	id int
}

type fieldKey struct {
	obj   *ir.Object
	field int
}

type legacyCallCons struct {
	call *ir.Call
}

// legacyNode holds the per-node constraint state.
type legacyNode struct {
	pts   map[int]struct{} // location ids (field/function node ids)
	delta []int            // newly added, pending propagation
	succs map[int]struct{} // copy edges out

	loads   []int // x = *n : dst node ids
	stores  []int // *n = y : src node ids
	fields  []fieldCons
	indexes []int // x = n[idx] : dst node ids
	calls   []legacyCallCons

	// loc is set for location nodes.
	loc Loc
	// isLoc marks nodes that represent an abstract location.
	isLoc bool
}

type legacySolver struct {
	prog *ir.Program

	nodes  []*legacyNode
	parent []int // union-find

	regNodes   map[regKey]int
	fieldNodes map[fieldKey]int
	funcNodes  map[*ir.Function]int
	globNodes  map[*ir.Object]int
	funcConsts map[*ir.Function]int

	// collapsed objects map every field to 0.
	collapsed map[*ir.Object]bool
	// retVals caches each function's returned values.
	retVals map[*ir.Function][]ir.Value

	callees map[*ir.Call][]*ir.Function
	// resolved guards against re-adding call edges.
	resolved map[*ir.Call]map[*ir.Function]bool

	work []int
}

func newLegacySolver(prog *ir.Program) *legacySolver {
	return &legacySolver{
		prog:       prog,
		regNodes:   make(map[regKey]int),
		fieldNodes: make(map[fieldKey]int),
		funcNodes:  make(map[*ir.Function]int),
		globNodes:  make(map[*ir.Object]int),
		collapsed:  make(map[*ir.Object]bool),
		retVals:    make(map[*ir.Function][]ir.Value),
		callees:    make(map[*ir.Call][]*ir.Function),
		resolved:   make(map[*ir.Call]map[*ir.Function]bool),
	}
}

func (s *legacySolver) newNode() int {
	id := len(s.nodes)
	s.nodes = append(s.nodes, &legacyNode{
		pts:   make(map[int]struct{}),
		succs: make(map[int]struct{}),
	})
	s.parent = append(s.parent, id)
	return id
}

func (s *legacySolver) find(n int) int {
	for s.parent[n] != n {
		s.parent[n] = s.parent[s.parent[n]]
		n = s.parent[n]
	}
	return n
}

// findRO canonicalizes without path compression. Query entry points use
// it so that a solved Result is strictly read-only and can be shared
// across concurrent consumers (path compression writes would race).
func (s *legacySolver) findRO(n int) int {
	for s.parent[n] != n {
		n = s.parent[n]
	}
	return n
}

// freeze flattens the union-find and materializes lazily-initialized
// tables once solving is done, so subsequent queries perform no writes.
func (s *legacySolver) freeze() {
	for i := range s.parent {
		s.parent[i] = s.find(i)
	}
	if s.funcConsts == nil {
		s.funcConsts = make(map[*ir.Function]int)
	}
}

// union merges node b into node a (both canonicalized), returning the root.
func (s *legacySolver) union(a, b int) int {
	a, b = s.find(a), s.find(b)
	if a == b {
		return a
	}
	na, nb := s.nodes[a], s.nodes[b]
	s.parent[b] = a
	changed := false
	for l := range nb.pts {
		if _, ok := na.pts[l]; !ok {
			na.pts[l] = struct{}{}
			na.delta = append(na.delta, l)
			changed = true
		}
	}
	for e := range nb.succs {
		na.succs[e] = struct{}{}
	}
	na.loads = append(na.loads, nb.loads...)
	na.stores = append(na.stores, nb.stores...)
	na.fields = append(na.fields, nb.fields...)
	na.indexes = append(na.indexes, nb.indexes...)
	na.calls = append(na.calls, nb.calls...)
	if changed || len(nb.loads)+len(nb.stores)+len(nb.fields)+len(nb.indexes)+len(nb.calls) > 0 {
		s.enqueue(a)
	}
	// Re-push all of a's pts through the merged constraints once.
	if len(na.pts) > 0 {
		na.delta = na.delta[:0]
		for l := range na.pts {
			na.delta = append(na.delta, l)
		}
		s.enqueue(a)
	}
	return a
}

func (s *legacySolver) enqueue(n int) { s.work = append(s.work, n) }

func (s *legacySolver) regNode(r *ir.Register) int {
	k := regKey{r.Fn, r.ID}
	if id, ok := s.regNodes[k]; ok {
		return id
	}
	id := s.newNode()
	s.regNodes[k] = id
	return id
}

// fieldNode returns the canonical node for (obj, field).
func (s *legacySolver) fieldNode(obj *ir.Object, field int) int {
	if s.collapsed[obj] || obj.Collapsed() {
		field = 0
	} else if field < 0 || field >= obj.Size {
		// Out-of-bounds constant offset: fold to the collapsed view to
		// stay sound.
		s.collapseObj(obj)
		field = 0
	}
	k := fieldKey{obj, field}
	if id, ok := s.fieldNodes[k]; ok {
		return s.find(id)
	}
	id := s.newNode()
	s.nodes[id].isLoc = true
	s.nodes[id].loc = Loc{Obj: obj, Field: field}
	s.fieldNodes[k] = id
	return id
}

func (s *legacySolver) funcNode(fn *ir.Function) int {
	if id, ok := s.funcNodes[fn]; ok {
		return id
	}
	id := s.newNode()
	s.nodes[id].isLoc = true
	s.nodes[id].loc = Loc{Fn: fn}
	s.funcNodes[fn] = id
	return id
}

// collapseObj makes obj field-insensitive, merging all its field nodes.
func (s *legacySolver) collapseObj(obj *ir.Object) {
	if s.collapsed[obj] {
		return
	}
	s.collapsed[obj] = true
	obj.Collapse()
	base, ok := s.fieldNodes[fieldKey{obj, 0}]
	if !ok {
		base = s.fieldNode(obj, 0)
	}
	base = s.find(base)
	for k, id := range s.fieldNodes {
		if k.obj == obj && k.field != 0 {
			base = s.union(base, s.find(id))
		}
	}
	s.nodes[base].loc = Loc{Obj: obj, Field: 0}
}

// operandNode returns the constraint node of an operand. Constants have
// no node. When create is false, missing nodes are not materialized.
func (s *legacySolver) operandNode(v ir.Value, create bool) (int, bool) {
	switch v := v.(type) {
	case *ir.Register:
		k := regKey{v.Fn, v.ID}
		if id, ok := s.regNodes[k]; ok {
			return s.findRO(id), true
		}
		if !create {
			return 0, false
		}
		return s.regNode(v), true
	case *ir.GlobalAddr:
		if id, ok := s.globNodes[v.Obj]; ok {
			return s.findRO(id), true
		}
		if !create {
			return 0, false
		}
		id := s.newNode()
		s.globNodes[v.Obj] = id
		s.addLoc(id, s.fieldNode(v.Obj, 0))
		return id, true
	case *ir.FuncValue:
		// A constant function address: node with the singleton location.
		id := s.funcConstNode(v.Fn, create)
		if id < 0 {
			return 0, false
		}
		return id, true
	}
	return 0, false
}

func (s *legacySolver) funcConstNode(fn *ir.Function, create bool) int {
	// Cache a const node per function, holding the singleton function
	// location.
	if s.funcConsts == nil {
		if !create {
			return -1
		}
		s.funcConsts = make(map[*ir.Function]int)
	}
	if id, ok := s.funcConsts[fn]; ok {
		return s.findRO(id)
	}
	if !create {
		return -1
	}
	id := s.newNode()
	s.funcConsts[fn] = id
	s.addLoc(id, s.funcNode(fn))
	return id
}

func (s *legacySolver) addLoc(n, loc int) {
	n = s.find(n)
	nd := s.nodes[n]
	if _, ok := nd.pts[loc]; ok {
		return
	}
	nd.pts[loc] = struct{}{}
	nd.delta = append(nd.delta, loc)
	s.enqueue(n)
}

func (s *legacySolver) addEdge(from, to int) {
	from, to = s.find(from), s.find(to)
	if from == to {
		return
	}
	nf := s.nodes[from]
	if _, ok := nf.succs[to]; ok {
		return
	}
	nf.succs[to] = struct{}{}
	// Propagate existing points-to set across the new edge.
	changed := false
	nt := s.nodes[to]
	for l := range nf.pts {
		if _, ok := nt.pts[l]; !ok {
			nt.pts[l] = struct{}{}
			nt.delta = append(nt.delta, l)
			changed = true
		}
	}
	if changed {
		s.enqueue(to)
	}
}

// assign adds pts(dst) ⊇ pts(src) for an operand src.
func (s *legacySolver) assign(dst *ir.Register, src ir.Value) {
	sn, ok := s.operandNode(src, true)
	if !ok {
		return
	}
	s.addEdge(sn, s.regNode(dst))
}

// generate creates the initial constraints from the IR.
func (s *legacySolver) generate() {
	for _, fn := range s.prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if r, ok := in.(*ir.Ret); ok && r.Val != nil {
					s.retVals[fn] = append(s.retVals[fn], r.Val)
				}
			}
		}
	}
	for _, fn := range s.prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				s.genInstr(in)
			}
		}
	}
}

func (s *legacySolver) genInstr(in ir.Instr) {
	switch in := in.(type) {
	case *ir.Alloc:
		s.addLoc(s.regNode(in.Dst), s.fieldNode(in.Obj, 0))
	case *ir.Copy:
		s.assign(in.Dst, in.Src)
	case *ir.Phi:
		for _, v := range in.Vals {
			s.assign(in.Dst, v)
		}
	case *ir.Load:
		an, ok := s.operandNode(in.Addr, true)
		if !ok {
			return
		}
		an = s.find(an)
		s.nodes[an].loads = append(s.nodes[an].loads, s.regNode(in.Dst))
		s.enqueue(an)
	case *ir.Store:
		an, aok := s.operandNode(in.Addr, true)
		vn, vok := s.operandNode(in.Val, true)
		if !aok || !vok {
			return
		}
		an = s.find(an)
		s.nodes[an].stores = append(s.nodes[an].stores, vn)
		s.enqueue(an)
	case *ir.FieldAddr:
		bn, ok := s.operandNode(in.Base, true)
		if !ok {
			return
		}
		bn = s.find(bn)
		s.nodes[bn].fields = append(s.nodes[bn].fields, fieldCons{dst: s.regNode(in.Dst), off: in.Off})
		s.enqueue(bn)
	case *ir.IndexAddr:
		bn, ok := s.operandNode(in.Base, true)
		if !ok {
			return
		}
		bn = s.find(bn)
		s.nodes[bn].indexes = append(s.nodes[bn].indexes, s.regNode(in.Dst))
		s.enqueue(bn)
	case *ir.MemSet:
		// The fill value is a scalar, so no pointer flow; materialize the
		// target operand's node so PointsTo sees the written object.
		s.operandNode(in.To, true)
	case *ir.MemCopy:
		// The runtime range may span any field, so route both ends through
		// index-style constraints (which collapse the touched objects) and
		// copy through a temp: t ⊇ *src; *dst ⊇ t.
		fromN, fok := s.operandNode(in.From, true)
		toN, tok := s.operandNode(in.To, true)
		if !fok || !tok {
			return
		}
		sTmp, dTmp, t := s.newNode(), s.newNode(), s.newNode()
		s.nodes[sTmp].loads = append(s.nodes[sTmp].loads, t)
		s.nodes[dTmp].stores = append(s.nodes[dTmp].stores, t)
		fromN = s.find(fromN)
		s.nodes[fromN].indexes = append(s.nodes[fromN].indexes, sTmp)
		s.enqueue(fromN)
		toN = s.find(toN)
		s.nodes[toN].indexes = append(s.nodes[toN].indexes, dTmp)
		s.enqueue(toN)
	case *ir.Call:
		if in.Builtin != ir.NotBuiltin {
			return
		}
		if direct := in.Direct(); direct != nil {
			s.resolveCall(in, direct)
			return
		}
		cn, ok := s.operandNode(in.Callee, true)
		if !ok {
			return
		}
		cn = s.find(cn)
		s.nodes[cn].calls = append(s.nodes[cn].calls, legacyCallCons{call: in})
		s.enqueue(cn)
	}
}

// resolveCall wires argument and return value flow for a (call, callee)
// pair, once.
func (s *legacySolver) resolveCall(c *ir.Call, fn *ir.Function) {
	if s.resolved[c] == nil {
		s.resolved[c] = make(map[*ir.Function]bool)
	}
	if s.resolved[c][fn] {
		return
	}
	s.resolved[c][fn] = true
	s.callees[c] = append(s.callees[c], fn)
	if !fn.HasBody {
		return
	}
	n := len(c.Args)
	if len(fn.Params) < n {
		n = len(fn.Params)
	}
	for i := 0; i < n; i++ {
		s.assign(fn.Params[i], c.Args[i])
	}
	if c.Dst != nil {
		for _, rv := range s.retVals[fn] {
			s.assign(c.Dst, rv)
		}
	}
}

// solve runs the worklist to a fixpoint.
func (s *legacySolver) solve() {
	for len(s.work) > 0 {
		n := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		n = s.find(n)
		nd := s.nodes[n]
		if len(nd.delta) == 0 {
			continue
		}
		delta := nd.delta
		nd.delta = nil

		for _, rawLoc := range delta {
			loc := s.find(rawLoc)
			ln := s.nodes[loc]
			if !ln.isLoc {
				continue
			}
			if ln.loc.Fn != nil {
				// Function address: resolve indirect calls through n.
				for _, cc := range nd.calls {
					s.resolveCall(cc.call, ln.loc.Fn)
				}
				continue
			}
			// Memory location: apply load/store/field/index constraints.
			for _, dst := range nd.loads {
				s.addEdge(loc, dst)
			}
			for _, src := range nd.stores {
				s.addEdge(src, loc)
			}
			for _, fc := range nd.fields {
				target := s.fieldNode(ln.loc.Obj, ln.loc.Field+fc.off)
				s.addLoc(fc.dst, target)
			}
			for _, dst := range nd.indexes {
				s.collapseObj(ln.loc.Obj)
				s.addLoc(dst, s.fieldNode(ln.loc.Obj, 0))
			}
		}
		// Propagate the delta along copy edges.
		for succ := range nd.succs {
			succ = s.find(succ)
			if succ == n {
				continue
			}
			sn := s.nodes[succ]
			changed := false
			for _, l := range delta {
				if _, ok := sn.pts[l]; !ok {
					sn.pts[l] = struct{}{}
					sn.delta = append(sn.delta, l)
					changed = true
				}
			}
			if changed {
				s.enqueue(succ)
			}
		}
	}
}

// locsOf returns the canonicalized, deduplicated, sorted locations of a
// node.
func (s *legacySolver) locsOf(n int) []Loc {
	n = s.findRO(n)
	seen := make(map[int]struct{})
	var locs []Loc
	for raw := range s.nodes[n].pts {
		c := s.findRO(raw)
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		ln := s.nodes[c]
		if ln.isLoc {
			locs = append(locs, ln.loc)
		}
	}
	sortLocs(locs)
	return locs
}
