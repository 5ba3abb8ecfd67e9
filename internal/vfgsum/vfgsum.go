// Package vfgsum implements Opt IV: summary-based sparse Γ resolution.
//
// Dense resolution (vfg.ResolveWith) walks the value-flow graph once per
// (node, context) state, so a function body entered through k call sites
// is re-traversed up to k+1 times. This package precomputes per-function
// definedness summaries instead: the VFG is first condensed — every
// intraprocedural strongly connected component and every pure
// pass-through chain collapses to a single supernode — and each
// condensed region's summary records which interprocedural exits
// (call-edge and return-edge targets, with their call sites) its
// undefinedness can reach. Resolution then runs over supernode states:
// the intraprocedural closure of a region is walked exactly once, on
// first entry, and every later entry under a new call-site context
// re-checks only the region's return exits — the part of the transfer
// that actually depends on the entry context. Return-edge summaries
// whose target has already been reached under the unknown (widened)
// context are dominated by that stronger summary and pruned from the
// exit lists as resolution proceeds.
//
// The construction is exact, not approximate: interprocedural edge
// targets and undefinedness roots are always supernode entry points, so
// every dense (node, context) derivation decomposes into supernode-level
// transitions, and the resulting ⊥ set is bit-identical to the dense
// resolver's for any graph. The A/B harness at the repository root pins
// this over the corpus, the workload profiles, and randprog seeds across
// all six configurations.
//
// Condensation decomposes by function (intraprocedural edges never link
// two functions; any stray cross-function region is merged into one
// bucket first), so the bottom-up summary construction runs in parallel
// over the function buckets via internal/pool, with a deterministic
// global renumbering that makes the result independent of the worker
// count.
package vfgsum

import (
	"sort"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/vfg"
)

// Enabled routes the pipeline's Γ resolution (and Opt II's cut
// re-resolution) through summary-based resolution. The dense resolver
// remains the default; the -gamma-summaries flag on the binaries flips
// this process-wide.
var Enabled bool

// Workers bounds the parallelism of the per-function condensation pass.
// 0 means one worker per CPU.
var Workers int

// Stats are the deterministic work counters of a summary build — they
// feed the `summaries` pipeline pass and are bit-identical at any
// worker count.
type Stats struct {
	// Supernodes is the region count after condensation.
	Supernodes int
	// Ports counts supernodes that are resolution entry points: targets
	// of interprocedural edges or of undefinedness roots.
	Ports int
	// SCCsCollapsed counts multi-node intraprocedural SCCs collapsed.
	SCCsCollapsed int
	// ChainsCollapsed counts pass-through regions merged into their
	// unique predecessor.
	ChainsCollapsed int
	// BoundaryEdges counts the deduplicated interprocedural exits
	// recorded across all summaries.
	BoundaryEdges int
	// PrunedEdges counts redundant summary edges dropped at build time
	// (duplicate exits with identical target and call site).
	PrunedEdges int
}

// exitEdge is one interprocedural summary exit: reaching the owning
// region implies entering supernode sn, through call site context site.
type exitEdge struct {
	sn   int32
	site int32
}

// Summary is the condensed value-flow graph plus per-region definedness
// summaries, ready for repeated resolution. It is immutable after Build
// and safe to share across concurrent resolutions.
type Summary struct {
	g   *vfg.Graph
	nsn int // supernode count

	snOf []int32 // node id -> supernode id (-1 for root nodes)

	// Members, condensed intraprocedural adjacency, and boundary exits,
	// all in CSR form indexed by supernode id.
	memStart  []int32
	memList   []int32
	adjStart  []int32
	adjList   []int32
	callStart []int32
	callList  []exitEdge
	retStart  []int32
	retList   []exitEdge

	// seeds are the supernodes undefinedness is born in (root edges),
	// in deterministic first-occurrence order.
	seeds    []int32
	numSites int

	// Stats carries the build's deterministic counters.
	Stats Stats
}

// Graph returns the graph the summary condenses.
func (s *Summary) Graph() *vfg.Graph { return s.g }

// Supernodes returns the region count after condensation.
func (s *Summary) Supernodes() int { return s.nsn }

// Build condenses g and constructs its definedness summaries.
func Build(g *vfg.Graph) *Summary { return build(g, nil) }

// BuildCut is Build with a dependence-edge filter, matching
// vfg.ResolveCut's semantics: a user edge whose corresponding dependence
// edge is cut is absent from the condensation. Opt II's re-resolution
// must use a cut-aware summary — a cut edge inside a collapsed region
// would otherwise be traversed through the region's supernode.
func BuildCut(g *vfg.Graph, cut func(from, to vfg.NodeID) bool) *Summary {
	return build(g, cut)
}

func build(g *vfg.Graph, cut func(from, to vfg.NodeID) bool) *Summary {
	n := len(g.Nodes)
	s := &Summary{g: g, snOf: make([]int32, n), numSites: g.NumSites()}

	// Pass 1: the intraprocedural adjacency is the graph's own user CSR,
	// read through intraAdj, which skips interprocedural edges and the
	// cut. Collect the interprocedural edges and the root seeds. A user
	// edge from u to e.To corresponds to the dependence edge e.To -> u,
	// which is what the cut predicate keys on (as in vfg.ResolveWith).
	type interEdge struct {
		from, to int32
		site     int32
		kind     vfg.EdgeKind
	}
	var inter []interEdge
	adj := intraAdj{}
	adj.start, adj.edges = g.UserCSR()
	if cut != nil {
		adj.cut = bitset.New(len(adj.edges))
	}
	for u := 0; u < n; u++ {
		if vfg.IsRoot(vfg.NodeID(u)) {
			continue
		}
		for i := adj.start[u]; i < adj.start[u+1]; i++ {
			e := adj.edges[i]
			if cut != nil && cut(e.To, vfg.NodeID(u)) {
				adj.cut.Add(int(i))
				continue
			}
			if e.Kind != vfg.EdgeIntra {
				inter = append(inter, interEdge{
					from: int32(u), to: int32(e.To), site: e.Site, kind: e.Kind,
				})
			}
		}
	}
	var seedNodes []int32
	for _, e := range g.Users(vfg.RootF) {
		if cut != nil && cut(e.To, vfg.RootF) {
			continue
		}
		seedNodes = append(seedNodes, int32(e.To))
	}

	// Pass 2: bucket nodes by function. Intraprocedural edges are built
	// within one function, but the partition does not assume it: any
	// cross-bucket intra edge merges its endpoints' buckets, so each
	// bucket's subgraph is closed under intra edges and can be condensed
	// independently.
	bucketOf := make([]int32, n)
	for i := range bucketOf {
		bucketOf[i] = -1
	}
	fnBucket := make(map[*ir.Function]int32)
	nb := int32(0)
	for u := 0; u < n; u++ {
		if vfg.IsRoot(vfg.NodeID(u)) {
			continue
		}
		fn := g.Nodes[u].Fn()
		b, ok := fnBucket[fn]
		if !ok {
			b = nb
			nb++
			fnBucket[fn] = b
		}
		bucketOf[u] = b
	}
	bParent := make([]int32, nb)
	for i := range bParent {
		bParent[i] = int32(i)
	}
	var bFind func(x int32) int32
	bFind = func(x int32) int32 {
		for bParent[x] != x {
			bParent[x] = bParent[bParent[x]]
			x = bParent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		if bucketOf[u] < 0 {
			continue
		}
		for i := adj.start[u]; i < adj.start[u+1]; i++ {
			if !adj.keep(i) {
				continue
			}
			v := adj.edges[i].To
			bu, bv := bFind(bucketOf[u]), bFind(bucketOf[v])
			if bu != bv {
				bParent[bv] = bu
			}
		}
	}
	bucketNodes := make(map[int32][]int32)
	for u := 0; u < n; u++ {
		if bucketOf[u] < 0 {
			continue
		}
		b := bFind(bucketOf[u])
		bucketNodes[b] = append(bucketNodes[b], int32(u))
	}
	buckets := make([][]int32, 0, len(bucketNodes))
	for _, nodes := range bucketNodes {
		buckets = append(buckets, nodes)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i][0] < buckets[j][0] })

	// Pass 3: intraprocedural SCCs per bucket, in parallel. Each worker
	// writes the prelim component id of its own nodes only; the ids are
	// made globally unique by offsetting with the node index, so the
	// partition (what matters) is identical at any worker count.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	workers := Workers
	if workers <= 0 {
		workers = pool.DefaultParallelism()
	}
	_ = pool.ForEach(workers, len(buckets), func(bi int) error {
		tarjan(buckets[bi], adj, comp)
		return nil
	})

	// Renumber prelim components densely and deterministically by first
	// appearance in node-id order.
	prelim := make([]int32, n)
	for i := range prelim {
		prelim[i] = -1
	}
	compIndex := make(map[int32]int32)
	np := int32(0)
	for u := 0; u < n; u++ {
		if comp[u] < 0 {
			continue
		}
		c, ok := compIndex[comp[u]]
		if !ok {
			c = np
			np++
			compIndex[comp[u]] = c
		}
		prelim[u] = c
	}
	sccsCollapsed := 0
	{
		sizes := make([]int32, np)
		for u := 0; u < n; u++ {
			if prelim[u] >= 0 {
				sizes[prelim[u]]++
			}
		}
		for _, sz := range sizes {
			if sz > 1 {
				sccsCollapsed++
			}
		}
	}

	// Pass 4: chain collapsing. A component with no entry points (no
	// interprocedural in-edge, no root seed) whose intra in-edges all
	// come from one other component is reached exactly when that
	// predecessor is, under exactly the same contexts — merge them.
	// Merging is computed on the prelim component DAG, so it is
	// deterministic and cannot form cycles.
	const (
		predNone  = int32(-1)
		predMulti = int32(-2)
	)
	pred := make([]int32, np)
	for i := range pred {
		pred[i] = predNone
	}
	hasEntry := make([]bool, np)
	for u := 0; u < n; u++ {
		if prelim[u] < 0 {
			continue
		}
		pu := prelim[u]
		for i := adj.start[u]; i < adj.start[u+1]; i++ {
			if !adj.keep(i) {
				continue
			}
			v := adj.edges[i].To
			pv := prelim[v]
			if pv == pu {
				continue
			}
			switch pred[pv] {
			case predNone:
				pred[pv] = pu
			case pu, predMulti:
			default:
				pred[pv] = predMulti
			}
		}
	}
	for _, e := range inter {
		hasEntry[prelim[e.to]] = true
	}
	for _, t := range seedNodes {
		hasEntry[prelim[t]] = true
	}
	parent := make([]int32, np)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	chains := 0
	for v := int32(0); v < np; v++ {
		if !hasEntry[v] && pred[v] >= 0 {
			parent[v] = pred[v] // resolved transitively by find
			chains++
		}
	}

	// Final supernode numbering: rank of the minimum member node id.
	s.snOf = make([]int32, n)
	for i := range s.snOf {
		s.snOf[i] = -1
	}
	finalIndex := make(map[int32]int32)
	nsn := int32(0)
	for u := 0; u < n; u++ {
		if prelim[u] < 0 {
			continue
		}
		root := find(prelim[u])
		id, ok := finalIndex[root]
		if !ok {
			id = nsn
			nsn++
			finalIndex[root] = id
		}
		s.snOf[u] = id
	}
	s.nsn = int(nsn)

	// Members CSR (ascending node ids by construction).
	s.memStart = make([]int32, nsn+1)
	for u := 0; u < n; u++ {
		if s.snOf[u] >= 0 {
			s.memStart[s.snOf[u]+1]++
		}
	}
	for i := int32(0); i < nsn; i++ {
		s.memStart[i+1] += s.memStart[i]
	}
	s.memList = make([]int32, s.memStart[nsn])
	memFill := make([]int32, nsn)
	copy(memFill, s.memStart[:nsn])
	for u := 0; u < n; u++ {
		if sn := s.snOf[u]; sn >= 0 {
			s.memList[memFill[sn]] = int32(u)
			memFill[sn]++
		}
	}

	// Condensed adjacency and boundary exits, deduplicated per region.
	// Iterating regions over their (ascending) members keeps the order
	// deterministic; the stamp array gives exact intra dedup in O(E).
	stamp := make([]int32, nsn)
	for i := range stamp {
		stamp[i] = -1
	}
	s.adjStart = make([]int32, nsn+1)
	s.callStart = make([]int32, nsn+1)
	s.retStart = make([]int32, nsn+1)
	// Group interprocedural edges by source supernode for the exit scan.
	callBySN := make([][]exitEdge, nsn)
	retBySN := make([][]exitEdge, nsn)
	for _, e := range inter {
		su := s.snOf[e.from]
		ex := exitEdge{sn: s.snOf[e.to], site: e.site}
		if e.kind == vfg.EdgeCall {
			callBySN[su] = append(callBySN[su], ex)
		} else {
			retBySN[su] = append(retBySN[su], ex)
		}
	}
	pruned := 0
	dedupExits := func(list []exitEdge) []exitEdge {
		out := list[:0]
		for _, e := range list {
			dup := false
			for _, p := range out {
				if p == e {
					dup = true
					break
				}
			}
			if dup {
				pruned++
				continue
			}
			out = append(out, e)
		}
		return out
	}
	for sn := int32(0); sn < nsn; sn++ {
		for _, u := range s.memList[s.memStart[sn]:s.memStart[sn+1]] {
			for i := adj.start[u]; i < adj.start[u+1]; i++ {
				if !adj.keep(i) {
					continue
				}
				v := adj.edges[i].To
				sv := s.snOf[v]
				if sv != sn && stamp[sv] != sn {
					stamp[sv] = sn
					s.adjList = append(s.adjList, sv)
				}
			}
		}
		s.adjStart[sn+1] = int32(len(s.adjList))
		callBySN[sn] = dedupExits(callBySN[sn])
		retBySN[sn] = dedupExits(retBySN[sn])
		s.callList = append(s.callList, callBySN[sn]...)
		s.retList = append(s.retList, retBySN[sn]...)
		s.callStart[sn+1] = int32(len(s.callList))
		s.retStart[sn+1] = int32(len(s.retList))
	}

	// Seeds and entry-point (port) count.
	seedStamp := make([]bool, nsn)
	for _, t := range seedNodes {
		sn := s.snOf[t]
		if !seedStamp[sn] {
			seedStamp[sn] = true
			s.seeds = append(s.seeds, sn)
		}
	}
	portStamp := make([]bool, nsn)
	ports := 0
	markPort := func(sn int32) {
		if !portStamp[sn] {
			portStamp[sn] = true
			ports++
		}
	}
	for _, sn := range s.seeds {
		markPort(sn)
	}
	for _, e := range inter {
		markPort(s.snOf[e.to])
	}

	s.Stats = Stats{
		Supernodes:      s.nsn,
		Ports:           ports,
		SCCsCollapsed:   sccsCollapsed,
		ChainsCollapsed: chains,
		BoundaryEdges:   len(s.callList) + len(s.retList),
		PrunedEdges:     pruned,
	}
	return s
}

// intraAdj is the intraprocedural part of a graph's user CSR, less the
// edges a cut removed.
type intraAdj struct {
	start []int32
	edges []vfg.Edge
	// cut holds the positions in edges of cut user edges; nil (empty)
	// when nothing is cut.
	cut *bitset.Set
}

// keep reports whether the user edge at position i is an uncut
// intraprocedural edge.
func (a intraAdj) keep(i int32) bool {
	return a.edges[i].Kind == vfg.EdgeIntra && !a.cut.Has(int(i))
}

// tarjan runs an iterative Tarjan SCC pass over one bucket's subgraph
// (nodes, with adjacency restricted by construction to the bucket) and
// writes each node's component id into comp. Component ids are the SCC
// root's node id, which is globally unique across buckets, so workers
// condensing disjoint buckets never conflict.
func tarjan(nodes []int32, adj intraAdj, comp []int32) {
	index := make(map[int32]int32, len(nodes))
	low := make(map[int32]int32, len(nodes))
	onStack := make(map[int32]bool, len(nodes))
	var stack []int32
	next := int32(0)

	type frame struct {
		v  int32
		ei int32
	}
	var frames []frame
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		frames = append(frames[:0], frame{v: start})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for i := adj.start[v] + f.ei; i < adj.start[v+1]; i = adj.start[v] + f.ei {
				f.ei++
				if !adj.keep(i) {
					continue
				}
				w := int32(adj.edges[i].To)
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop its SCC if it is a root.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = v
					if w == v {
						break
					}
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
}
