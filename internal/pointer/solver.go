package pointer

import (
	"sort"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/ir"
)

// This file is the production Andersen solver, engineered around three
// classic scaling techniques (see DESIGN.md, "Solver architecture"):
//
//   - Bit-vector points-to sets. Abstract locations get dense ids as they
//     are created; each constraint node's points-to set and pending delta
//     are bitset.Sets over those ids, so set union, membership and
//     difference run word-at-a-time instead of per-element map probes.
//
//   - Difference propagation. Every node carries a delta of facts not yet
//     pushed through its constraints. Worklist visits process only the
//     delta, and propagation along a copy edge is a single word-level
//     union-with-difference; a warm edge (nothing new) costs a few word
//     compares.
//
//   - Online cycle elimination. Copy-edge cycles make the worklist thrash:
//     every member re-propagates the whole set around the ring. Following
//     lazy cycle detection (Hardekopf & Lin), a propagation that changes
//     nothing between two nodes with equal points-to sets triggers a
//     Tarjan SCC pass over the copy graph, and every multi-node SCC is
//     collapsed into a union-find representative. Location nodes are
//     collapse barriers: merging two distinct abstract locations would
//     change the analysis' answers (see TestCycleCollapsePreservesFields),
//     so cycles running through memory are only shortened, never fused.
//
// Node interning avoids hashing where the IR already provides dense ids:
// registers are keyed [function index][register id], object fields
// [object id][field], globals and functions by their dense ids — two-level
// slice lookups instead of struct-keyed map probes (see
// BenchmarkSolverGenerate).
//
// The solved state honors the same read-only contract as before: freeze()
// flattens the union-find, and every query entry point canonicalizes with
// findRO (no path compression), so a frozen Result performs no writes and
// can be shared across goroutines (the usher.Session contract).

type fieldCons struct {
	dst int
	off int
}

// node holds the per-node constraint state.
type node struct {
	pts   bitset.Set // location ids
	delta bitset.Set // newly added location ids, pending propagation
	succs []int32    // copy edges out (node ids, insertion order)
	// Successor dedup is hybrid: short lists are scanned linearly; once a
	// node crosses succListMax edges, membership moves to a bit set
	// (succBig). Merging a small node into a big one may leave a few list
	// entries out of the set, so a duplicate edge can slip in — harmless,
	// since propagation is idempotent; dedup is an optimization only.
	succSet bitset.Set // bits are node ids at insertion time (pre-union)
	succBig bool

	loads   []int32 // x = *n : dst node ids
	stores  []int32 // *n = y : src node ids
	fields  []fieldCons
	indexes []int32 // x = n[idx] : dst node ids
	calls   []*ir.Call

	// locID indexes solver.locs for location nodes; -1 otherwise.
	locID int32
}

type solver struct {
	prog *ir.Program

	nodes  []*node
	arena  []node // chunked node storage: stable pointers, amortized allocs
	parent []int32

	// locs and locNode give every abstract location a dense id: locs[lid]
	// is the location, locNode[lid] the node created for it (canonicalize
	// through find before use — collapsing merges field nodes).
	locs    []Loc
	locNode []int32

	// Two-level slice interning over the IR's dense ids (-1 = no node).
	fnIdx      map[*ir.Function]int
	regNodes   [][]int32    // [fnIdx][register id]
	funcNodes  []int32      // [fnIdx]: function location nodes
	funcConsts []int32      // [fnIdx]: constant function-address nodes
	fieldNodes [][]int32    // [object id][field]
	globNodes  []int32      // [object id]: global-address operand nodes
	collapsed  []bool       // [object id]
	retVals    [][]ir.Value // [fnIdx]: returned values

	callees map[*ir.Call][]*ir.Function
	// resolved guards against re-adding call edges (bits are fn indexes).
	resolved map[*ir.Call]*bitset.Set

	work []int32
	// onWork dedupes worklist entries: a node already queued (and not yet
	// dequeued) is not pushed again — its pending delta covers both pushes.
	onWork bitset.Set

	// edgeEpoch counts copy-edge insertions; lcdEpoch records the epoch of
	// the last cycle-collapse pass; lcdTriggers counts suspected-cycle
	// propagations since that pass. A collapse pass only runs once enough
	// suspicions accumulate after graph growth, so its O(N+E) cost is
	// amortized against real worklist thrash, not paid per trigger.
	edgeEpoch   int
	lcdEpoch    int
	lcdTriggers int

	// visits counts worklist visits with a non-empty delta; waves counts
	// worklist rounds (see solve); sccCollapsed counts multi-node SCCs
	// folded by collapseCycles. All feed SolverStats (pure functions of the
	// input program: the worklist is deterministic, so they are covered by
	// the bit-identical reporting contract of usher-bench and
	// usher-difftest).
	visits       int
	waves        int
	sccCollapsed int

	// Scratch state reused across collapseCycles passes.
	sccIndex   []int32
	sccLow     []int32
	sccOnStack []bool
	sccStack   []int32
	sccDfs     []sccFrame

	// spare recycles delta storage across worklist visits.
	spare bitset.Set
}

// lcdTriggerBatch is the number of suspected-cycle propagations that must
// accumulate (after new edges appeared) before a Tarjan collapse pass runs.
const lcdTriggerBatch = 256

// succListMax is the successor-list length at which a node's edge dedup
// switches from linear scan to a bit set.
const succListMax = 32

// sccFrame is a collapseCycles DFS stack frame.
type sccFrame struct {
	v  int32
	si int // next successor index to examine
}

func newSolver(prog *ir.Program) *solver {
	s := &solver{
		prog:     prog,
		fnIdx:    make(map[*ir.Function]int, len(prog.Funcs)),
		callees:  make(map[*ir.Call][]*ir.Function),
		resolved: make(map[*ir.Call]*bitset.Set),
	}
	for i, fn := range prog.Funcs {
		s.fnIdx[fn] = i
	}
	nf := len(prog.Funcs)
	s.regNodes = make([][]int32, nf)
	s.funcNodes = newNeg32(nf)
	s.funcConsts = newNeg32(nf)
	s.retVals = make([][]ir.Value, nf)
	maxObj := 0
	for _, o := range prog.Objects() {
		if o.ID >= maxObj {
			maxObj = o.ID + 1
		}
	}
	s.fieldNodes = make([][]int32, maxObj)
	s.globNodes = newNeg32(maxObj)
	s.collapsed = make([]bool, maxObj)
	return s
}

// newNeg32 returns an n-slot table initialized to the -1 sentinel.
func newNeg32(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// grow32 extends t with -1 slots to hold index n.
func grow32(t []int32, n int) []int32 {
	for len(t) <= n {
		t = append(t, -1)
	}
	return t
}

func (s *solver) newNode() int {
	if len(s.arena) == 0 {
		s.arena = make([]node, 512)
	}
	nd := &s.arena[0]
	s.arena = s.arena[1:]
	nd.locID = -1
	id := len(s.nodes)
	s.nodes = append(s.nodes, nd)
	s.parent = append(s.parent, int32(id))
	return id
}

// newLocNode creates a node representing the abstract location loc and
// assigns it the next dense location id.
func (s *solver) newLocNode(loc Loc) int {
	id := s.newNode()
	lid := len(s.locs)
	s.locs = append(s.locs, loc)
	s.locNode = append(s.locNode, int32(id))
	s.nodes[id].locID = int32(lid)
	return id
}

func (s *solver) find(n int) int {
	for int(s.parent[n]) != n {
		s.parent[n] = s.parent[s.parent[n]]
		n = int(s.parent[n])
	}
	return n
}

// findRO canonicalizes without path compression. Query entry points use
// it so that a solved Result is strictly read-only and can be shared
// across concurrent consumers (path compression writes would race).
func (s *solver) findRO(n int) int {
	for int(s.parent[n]) != n {
		n = int(s.parent[n])
	}
	return n
}

// freeze flattens the union-find once solving is done, so subsequent
// queries perform no writes. Every points-to set is sealed: a frozen
// Result is shared read-only across goroutines (the usher.Session
// contract), and sealing turns any accidental post-freeze mutation into
// an immediate panic instead of a data race.
func (s *solver) freeze() {
	for i := range s.parent {
		s.parent[i] = int32(s.find(i))
	}
	for _, nd := range s.nodes {
		nd.pts.Seal()
	}
}

// union merges node b into node a (canonicalizing both), returning the
// root. When exactly one of the two is a location node it becomes the
// root, so a location never loses its identity to a register
// representative.
func (s *solver) union(a, b int) int {
	a = s.merge(a, b)
	// Re-push the whole set through the merged constraints once.
	na := s.nodes[a]
	if !na.pts.Empty() {
		na.delta.CopyFrom(&na.pts)
		s.enqueue(a)
	}
	return a
}

// merge is union without the re-push: the caller is responsible for
// re-enqueueing the representative with its full set once a batch of
// merges is done (collapseCycles folds whole SCCs with one re-push).
func (s *solver) merge(a, b int) int {
	a, b = s.find(a), s.find(b)
	if a == b {
		return a
	}
	na, nb := s.nodes[a], s.nodes[b]
	if na.locID < 0 && nb.locID >= 0 {
		a, b = b, a
		na, nb = nb, na
	}
	s.parent[b] = int32(a)
	na.pts.UnionDiffInto(&nb.pts, &na.delta)
	na.succs = append(na.succs, nb.succs...)
	na.succSet.UnionWith(&nb.succSet)
	na.succBig = na.succBig || nb.succBig
	na.loads = append(na.loads, nb.loads...)
	na.stores = append(na.stores, nb.stores...)
	na.fields = append(na.fields, nb.fields...)
	na.indexes = append(na.indexes, nb.indexes...)
	na.calls = append(na.calls, nb.calls...)
	return a
}

func (s *solver) enqueue(n int) {
	if s.onWork.Add(n) {
		s.work = append(s.work, int32(n))
	}
}

func (s *solver) regNode(r *ir.Register) int {
	fi, ok := s.fnIdx[r.Fn]
	if !ok {
		// A register of a function outside the program: no constraints can
		// involve it (ir.Verify rejects such IR); model it as a fresh node.
		return s.newNode()
	}
	regs := s.regNodes[fi]
	if regs == nil {
		regs = newNeg32(r.Fn.NumRegs())
		s.regNodes[fi] = regs
	}
	if r.ID >= len(regs) {
		regs = grow32(regs, r.ID)
		s.regNodes[fi] = regs
	}
	if id := regs[r.ID]; id >= 0 {
		return int(id)
	}
	id := s.newNode()
	regs[r.ID] = int32(id)
	return id
}

// fieldNode returns the canonical node for (obj, field).
func (s *solver) fieldNode(obj *ir.Object, field int) int {
	if obj.ID >= len(s.collapsed) {
		// An object minted after solver construction (not produced by any
		// current pipeline): grow the tables.
		s.fieldNodes = append(s.fieldNodes, make([][]int32, obj.ID+1-len(s.fieldNodes))...)
		s.globNodes = grow32(s.globNodes, obj.ID)
		s.collapsed = append(s.collapsed, make([]bool, obj.ID+1-len(s.collapsed))...)
	}
	if s.collapsed[obj.ID] || obj.Collapsed() {
		field = 0
	} else if field < 0 || field >= obj.Size {
		// Out-of-bounds constant offset: fold to the collapsed view to
		// stay sound.
		s.collapseObj(obj)
		field = 0
	}
	fields := s.fieldNodes[obj.ID]
	if fields == nil {
		n := obj.Size
		if s.collapsed[obj.ID] || obj.Collapsed() {
			// Only field 0 is ever addressed: a 1-slot table keeps a
			// collapsed char c[1e9] from allocating (and collapseObj from
			// walking) a billion-entry table.
			n = 1
		}
		if n < 1 {
			n = 1
		}
		fields = newNeg32(n)
		s.fieldNodes[obj.ID] = fields
	}
	if id := fields[field]; id >= 0 {
		return s.find(int(id))
	}
	id := s.newLocNode(Loc{Obj: obj, Field: field})
	fields[field] = int32(id)
	return id
}

func (s *solver) funcNode(fn *ir.Function) int {
	fi := s.fnIdx[fn]
	if id := s.funcNodes[fi]; id >= 0 {
		return int(id)
	}
	id := s.newLocNode(Loc{Fn: fn})
	s.funcNodes[fi] = int32(id)
	return id
}

// collapseObj makes obj field-insensitive, merging all its field nodes.
func (s *solver) collapseObj(obj *ir.Object) {
	if s.collapsed[obj.ID] {
		return
	}
	s.collapsed[obj.ID] = true
	obj.Collapse()
	base := s.find(s.fieldNode(obj, 0))
	for f, id := range s.fieldNodes[obj.ID] {
		if f != 0 && id >= 0 {
			base = s.union(base, s.find(int(id)))
		}
	}
	// The merged representative answers for the whole object.
	s.nodes[base].locID = s.nodes[s.find(int(s.fieldNodes[obj.ID][0]))].locID
	if lid := s.nodes[base].locID; lid >= 0 {
		s.locs[lid] = Loc{Obj: obj, Field: 0}
	}
}

// operandNode returns the constraint node of an operand. Constants have
// no node. When create is false, missing nodes are not materialized.
func (s *solver) operandNode(v ir.Value, create bool) (int, bool) {
	switch v := v.(type) {
	case *ir.Register:
		if fi, ok := s.fnIdx[v.Fn]; ok {
			if regs := s.regNodes[fi]; regs != nil && v.ID < len(regs) && regs[v.ID] >= 0 {
				return s.findRO(int(regs[v.ID])), true
			}
		}
		if !create {
			return 0, false
		}
		return s.regNode(v), true
	case *ir.GlobalAddr:
		if v.Obj.ID < len(s.globNodes) {
			if id := s.globNodes[v.Obj.ID]; id >= 0 {
				return s.findRO(int(id)), true
			}
		}
		if !create {
			return 0, false
		}
		id := s.newNode()
		s.globNodes[v.Obj.ID] = int32(id)
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

func (s *solver) funcConstNode(fn *ir.Function, create bool) int {
	fi, ok := s.fnIdx[fn]
	if !ok {
		return -1
	}
	if id := s.funcConsts[fi]; id >= 0 {
		return s.findRO(int(id))
	}
	if !create {
		return -1
	}
	id := s.newNode()
	s.funcConsts[fi] = int32(id)
	s.addLoc(id, s.funcNode(fn))
	return id
}

// addLoc adds the abstract location held by node loc to pts(n).
func (s *solver) addLoc(n, loc int) {
	n = s.find(n)
	lid := int(s.nodes[s.find(loc)].locID)
	nd := s.nodes[n]
	if nd.pts.Add(lid) {
		nd.delta.Add(lid)
		s.enqueue(n)
	}
}

func (s *solver) addEdge(from, to int) {
	from, to = s.find(from), s.find(to)
	if from == to {
		return
	}
	nf := s.nodes[from]
	if nf.succBig {
		if !nf.succSet.Add(to) {
			return
		}
	} else {
		for _, e := range nf.succs {
			if int(e) == to {
				return
			}
		}
		if len(nf.succs) >= succListMax {
			nf.succBig = true
			for _, e := range nf.succs {
				nf.succSet.Add(int(e))
			}
			nf.succSet.Add(to)
		}
	}
	nf.succs = append(nf.succs, int32(to))
	s.edgeEpoch++
	// Propagate the existing points-to set across the new edge.
	nt := s.nodes[to]
	if nt.pts.UnionDiffInto(&nf.pts, &nt.delta) {
		s.enqueue(to)
	}
}

// assign adds pts(dst) ⊇ pts(src) for an operand src.
func (s *solver) assign(dst *ir.Register, src ir.Value) {
	sn, ok := s.operandNode(src, true)
	if !ok {
		return
	}
	s.addEdge(sn, s.regNode(dst))
}

// generate creates the initial constraints from the IR.
func (s *solver) generate() {
	for _, fn := range s.prog.Funcs {
		if !fn.HasBody {
			continue
		}
		fi := s.fnIdx[fn]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if r, ok := in.(*ir.Ret); ok && r.Val != nil {
					s.retVals[fi] = append(s.retVals[fi], r.Val)
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

func (s *solver) genInstr(in ir.Instr) {
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
		s.nodes[an].loads = append(s.nodes[an].loads, int32(s.regNode(in.Dst)))
		s.enqueue(an)
	case *ir.Store:
		an, aok := s.operandNode(in.Addr, true)
		vn, vok := s.operandNode(in.Val, true)
		if !aok || !vok {
			return
		}
		an = s.find(an)
		s.nodes[an].stores = append(s.nodes[an].stores, int32(vn))
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
		s.nodes[bn].indexes = append(s.nodes[bn].indexes, int32(s.regNode(in.Dst)))
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
		s.nodes[sTmp].loads = append(s.nodes[sTmp].loads, int32(t))
		s.nodes[dTmp].stores = append(s.nodes[dTmp].stores, int32(t))
		fromN = s.find(fromN)
		s.nodes[fromN].indexes = append(s.nodes[fromN].indexes, int32(sTmp))
		s.enqueue(fromN)
		toN = s.find(toN)
		s.nodes[toN].indexes = append(s.nodes[toN].indexes, int32(dTmp))
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
		s.nodes[cn].calls = append(s.nodes[cn].calls, in)
		s.enqueue(cn)
	}
}

// resolveCall wires argument and return value flow for a (call, callee)
// pair, once.
func (s *solver) resolveCall(c *ir.Call, fn *ir.Function) {
	r := s.resolved[c]
	if r == nil {
		r = bitset.New(0)
		s.resolved[c] = r
	}
	fi := s.fnIdx[fn]
	if !r.Add(fi) {
		return
	}
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
		for _, rv := range s.retVals[fi] {
			s.assign(c.Dst, rv)
		}
	}
}

// solve runs the worklist to a fixpoint.
func (s *solver) solve() {
	var round []int32
	for len(s.work) > 0 {
		// Process in rounds (wave order): everything queued now is visited
		// in insertion order before anything it newly enqueues, so a fact
		// crosses long copy chains once per round instead of thrashing a
		// LIFO stack.
		round, s.work = s.work, round[:0]
		s.waves++
		for _, rawN := range round {
			n := int(rawN)
			s.onWork.Remove(n)
			n = s.find(n)
			nd := s.nodes[n]
			if nd.delta.Empty() {
				continue
			}
			s.visits++
			// Detach the delta; the node continues accumulating into a
			// fresh (recycled) set while this one is processed.
			delta := nd.delta
			nd.delta = s.spare
			s.spare = bitset.Set{}

			s.applyComplex(nd, &delta)

			// Propagate the delta along copy edges: one word-level
			// union-with-difference per successor.
			for _, rawS := range nd.succs {
				succ := s.find(int(rawS))
				if succ == n {
					continue
				}
				sn := s.nodes[succ]
				if sn.pts.UnionDiffInto(&delta, &sn.delta) {
					s.enqueue(succ)
				} else if s.edgeEpoch != s.lcdEpoch && nd.pts.Equal(&sn.pts) {
					// Lazy cycle detection: a no-op propagation between
					// nodes with identical sets suggests a copy cycle.
					// Individual suspicions are cheap false positives
					// (converged neighbors look the same), so a Tarjan pass
					// only runs once a batch of them accumulates; after it
					// runs, detection is re-armed by the next graph growth.
					s.lcdTriggers++
					if s.lcdTriggers >= lcdTriggerBatch {
						s.lcdTriggers = 0
						s.lcdEpoch = s.edgeEpoch
						s.collapseCycles()
						if s.find(n) != n {
							// n was merged away; its representative was
							// re-enqueued with the full set, which covers
							// the remaining succs.
							break
						}
					}
				}
			}

			delta.Clear()
			s.spare = delta
		}
	}
}

// applyComplex applies nd's complex constraints (loads, stores, field and
// index offsets, indirect calls) to every location in delta. Pure copy
// nodes (the vast majority) have no complex constraints and return
// immediately. Complex constraints mutate graph structure — new edges,
// new field nodes, object collapses, call resolution.
func (s *solver) applyComplex(nd *node, delta *bitset.Set) {
	if len(nd.loads)+len(nd.stores)+len(nd.fields)+len(nd.indexes)+len(nd.calls) == 0 {
		return
	}
	delta.ForEach(func(lid int) {
		c := s.find(int(s.locNode[lid]))
		s.locNode[lid] = int32(c) // path-compress the loc table
		ln := s.nodes[c]
		if ln.locID < 0 {
			return
		}
		loc := s.locs[ln.locID]
		if loc.Fn != nil {
			// Function address: resolve indirect calls through n.
			for _, call := range nd.calls {
				s.resolveCall(call, loc.Fn)
			}
			return
		}
		// Memory location: apply load/store/field/index constraints.
		for _, dst := range nd.loads {
			s.addEdge(c, int(dst))
		}
		for _, src := range nd.stores {
			s.addEdge(int(src), c)
		}
		for _, fc := range nd.fields {
			target := s.fieldNode(loc.Obj, loc.Field+fc.off)
			s.addLoc(fc.dst, target)
		}
		for _, dst := range nd.indexes {
			s.collapseObj(loc.Obj)
			s.addLoc(int(dst), s.fieldNode(loc.Obj, 0))
		}
	})
}

// collapseCycles runs an iterative Tarjan SCC pass over the canonical
// copy graph and collapses every multi-node SCC into one union-find
// representative. Location nodes are barriers: they are neither traversed
// through nor merged, so distinct abstract locations always survive (a
// cycle through memory would otherwise fuse unrelated objects' fields).
func (s *solver) collapseCycles() {
	n := len(s.nodes)
	if cap(s.sccIndex) < n {
		s.sccIndex = make([]int32, n) // 0 = unvisited, else visit order + 1
		s.sccLow = make([]int32, n)
		s.sccOnStack = make([]bool, n)
	}
	index := s.sccIndex[:n]
	low := s.sccLow[:n]
	onStack := s.sccOnStack[:n]
	for i := range index {
		index[i] = 0
		onStack[i] = false
	}
	stack := s.sccStack[:0]
	next := int32(0)

	dfs := s.sccDfs

	for root := 0; root < n; root++ {
		if int(s.parent[root]) != root || s.nodes[root].locID >= 0 || index[root] != 0 {
			continue
		}
		dfs = append(dfs[:0], sccFrame{int32(root), 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := int(f.v)
			if f.si == 0 {
				next++
				index[v] = next
				low[v] = next
				stack = append(stack, int32(v))
				onStack[v] = true
			}
			nv := s.nodes[v]
			advanced := false
			for f.si < len(nv.succs) {
				w := s.find(int(nv.succs[f.si]))
				f.si++
				if w == v || s.nodes[w].locID >= 0 {
					continue
				}
				if index[w] == 0 {
					dfs = append(dfs, sccFrame{int32(w), 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				if p := int(dfs[len(dfs)-1].v); low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots an SCC: pop it and collapse if non-trivial.
			popTo := len(stack)
			for popTo > 0 {
				popTo--
				onStack[stack[popTo]] = false
				if int(stack[popTo]) == v {
					break
				}
			}
			scc := stack[popTo:]
			if len(scc) > 1 {
				s.sccCollapsed++
				rep := scc[0]
				for _, w := range scc[1:] {
					if w < rep {
						rep = w
					}
				}
				r := int(rep)
				for _, w := range scc {
					if int(w) != r {
						r = s.merge(r, int(w))
					}
				}
				// One full re-push for the whole SCC: the merged constraint
				// lists see the combined set exactly once.
				rn := s.nodes[r]
				if !rn.pts.Empty() {
					rn.delta.CopyFrom(&rn.pts)
					s.enqueue(r)
				}
			}
			stack = stack[:popTo]
		}
	}
	s.sccStack = stack[:0]
	s.sccDfs = dfs[:0]
}

// stats summarizes the solved constraint system. Call after freeze():
// constraint lists are concatenated onto representatives by merge, so
// summing over union-find roots counts each constraint exactly once.
func (s *solver) stats() SolverStats {
	ss := SolverStats{
		Nodes:         len(s.nodes),
		Locations:     len(s.locs),
		CopyEdges:     s.edgeEpoch,
		Visits:        s.visits,
		Waves:         s.waves,
		SCCsCollapsed: s.sccCollapsed,
	}
	for i, nd := range s.nodes {
		if int(s.parent[i]) != i {
			continue
		}
		ss.Constraints += len(nd.loads) + len(nd.stores) + len(nd.fields) + len(nd.indexes) + len(nd.calls)
	}
	return ss
}

// locsOf returns the canonicalized, deduplicated, sorted locations of a
// node.
func (s *solver) locsOf(n int) []Loc {
	n = s.findRO(n)
	nd := s.nodes[n]
	var locs []Loc
	seen := make(map[int32]struct{})
	nd.pts.ForEach(func(lid int) {
		c := s.findRO(int(s.locNode[lid]))
		ln := s.nodes[c]
		if ln.locID < 0 {
			return
		}
		if _, dup := seen[ln.locID]; dup {
			return
		}
		seen[ln.locID] = struct{}{}
		locs = append(locs, s.locs[ln.locID])
	})
	sortLocs(locs)
	return locs
}

// sortLocs orders locations deterministically: memory locations by
// (object id, field), then function locations by name.
func sortLocs(locs []Loc) {
	sort.Slice(locs, func(i, j int) bool {
		a, b := locs[i], locs[j]
		if (a.Fn != nil) != (b.Fn != nil) {
			return a.Fn == nil
		}
		if a.Fn != nil {
			return a.Fn.Name < b.Fn.Name
		}
		if a.Obj.ID != b.Obj.ID {
			return a.Obj.ID < b.Obj.ID
		}
		return a.Field < b.Field
	})
}
