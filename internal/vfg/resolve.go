package vfg

import (
	"cmp"
	"slices"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/ir"
)

// State is the resolved definedness of a node: Top (⊤, provably defined)
// or Bottom (⊥, possibly undefined).
type State bool

// Definedness states.
const (
	Top    State = false // reachable only from T
	Bottom State = true  // reachable from F
)

func (s State) String() string {
	if s == Bottom {
		return "⊥"
	}
	return "⊤"
}

// Gamma maps VFG nodes to their definedness. The ⊥ set is a dense bit
// set over node ids, one word per 64 nodes (the shared internal/bitset
// package, also the pointer solver's points-to representation).
type Gamma struct {
	g      *Graph
	n      int // node count at resolution time
	bottom *bitset.Set
	// eq is set when resolution ran over access-equivalence classes.
	eq *Equivalence
}

// Of returns the state of node n. Nodes unknown to the resolution
// (NoNode, or ids past the node count it ran against) are
// conservatively ⊥.
func (gm *Gamma) Of(n NodeID) State {
	if n < 0 {
		return Bottom
	}
	if gm.eq != nil {
		n = gm.eq.Rep(n)
	}
	if int(n) >= gm.n || gm.bottom.Has(int(n)) {
		return Bottom
	}
	return Top
}

// OfValue returns the state of an operand: constants and addresses are ⊤.
func (gm *Gamma) OfValue(v ir.Value) State {
	if r, ok := v.(*ir.Register); ok {
		return gm.Of(gm.g.RegNode(r)) // an unmodelled register reads ⊥
	}
	return Top
}

// BottomBits exposes the ⊥ set as a dense bit vector over node ids, or
// nil when the resolution ran over merged equivalence classes (the bits
// then live on class representatives and are not meaningful per node).
// The returned set must be treated as read-only.
func (gm *Gamma) BottomBits() *bitset.Set {
	if gm.eq != nil {
		return nil
	}
	return gm.bottom
}

// BottomCount returns the number of ⊥ nodes.
func (gm *Gamma) BottomCount() int {
	if gm.eq == nil {
		return gm.bottom.Count()
	}
	// Under merging, ⊥ bits live on class representatives; count members.
	n := 0
	for id := range gm.g.Nodes {
		if gm.Of(NodeID(id)) == Bottom {
			n++
		}
	}
	return n
}

// ResolveOptions tunes definedness resolution.
type ResolveOptions struct {
	// ContextInsensitive disables call/return edge matching (ablation of
	// §3.3's context sensitivity): every interprocedural edge is treated
	// like an intraprocedural one.
	ContextInsensitive bool
	// MergeEquivalent resolves over access-equivalence classes instead of
	// individual nodes (the node-merging of §4.1). The resulting Γ is
	// identical; resolution visits fewer states.
	MergeEquivalent bool
	// Cut filters dependence edges: an edge (from, to) for which it
	// returns true is treated as replaced by from → T (Opt II's
	// Algorithm 1 rewiring).
	Cut func(from, to NodeID) bool
}

// Resolve computes Γ by forward reachability from the F root along user
// edges, matching call and return edges with 1-callsite context
// sensitivity (§3.3): a flow that entered a callee through call site c may
// leave it only through c's return edges. The unknown context subsumes
// every specific context.
func Resolve(g *Graph) *Gamma { return ResolveWith(g, ResolveOptions{}) }

// ResolveCut is Resolve with an edge filter (see ResolveOptions.Cut).
func ResolveCut(g *Graph, cut func(from, to NodeID) bool) *Gamma {
	return ResolveWith(g, ResolveOptions{Cut: cut})
}

// ResolveWith is the general entry point.
//
// Nodes reached in the unknown context propagate along every user edge
// they have. A callee entry e reached through call site c stands for its
// whole intraprocedural closure: the first call edge into e walks that
// closure once, marking each node ⊥, entering every callee it calls under
// that call's own site and recording the closure's return exits sorted by
// site, and every entry (e, c), the first included, then leaves only
// through the exits whose site is c. This is exact, because a node
// reached from e under context c is reached from e under every context;
// only the return exits depend on c. The walk stops at nodes already
// reached in the unknown context: that context subsumes every specific
// one, so such a node reaches everything beyond it, return exits
// included, on its own.
//
// The state is a fixed set of flat arrays: the ⊥ and unknown-context bit
// sets, a walk stamp and an entry index per node, and one array holding
// every walked entry's exits. Nothing is allocated per node visit or per
// calling context; only those arrays grow. Resolution never mutates the
// graph, so it may run concurrently over a shared graph.
func ResolveWith(g *Graph, opts ResolveOptions) *Gamma {
	cut := opts.Cut
	nn := len(g.Nodes)
	gm := &Gamma{g: g, n: nn, bottom: bitset.New(nn)}

	// Access-equivalence merging: resolve per class representative.
	// Edge cuts key on individual nodes, so merging is disabled under
	// them (Opt II re-resolution).
	rep := func(n NodeID) NodeID { return n }
	usersOf := g.Users
	if opts.MergeEquivalent && cut == nil {
		eq := ComputeAccessEquivalence(g)
		gm.eq = eq
		rep = eq.Rep
		usersOf = eq.classUsers
	}

	// The unknown context: reached nodes, and those still to propagate.
	unknown := bitset.New(nn)
	var work []NodeID
	reach := func(n NodeID) {
		if IsRoot(n) {
			return
		}
		n = rep(n)
		if unknown.Add(int(n)) {
			gm.bottom.Add(int(n))
			work = append(work, n)
		}
	}

	// Callee entries still to take, as call edges (entry node, call site).
	// entryIdx[e] is i > 0 once e's closure has been walked, its return
	// exits then being exits[exitStart[i-1]:exitStart[i]]. walked[v] is
	// the entry whose walk reached v last, or RootT (never an entry) if
	// no walk has.
	type exit struct {
		site int32
		to   NodeID
	}
	var entries []Edge
	var exits []exit
	exitStart := []int32{0}
	entryIdx := make([]int32, nn)
	walked := make([]NodeID, nn)
	var stack []NodeID
	walk := func(e NodeID) {
		first := len(exits)
		walked[e] = e
		stack = append(stack[:0], e)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			gm.bottom.Add(int(v))
			for _, u := range usersOf(v) {
				if cut != nil && cut(u.To, v) {
					continue
				}
				switch u.Kind {
				case EdgeIntra:
					if t := rep(u.To); walked[t] != e && !unknown.Has(int(t)) {
						walked[t] = e
						stack = append(stack, t)
					}
				case EdgeCall:
					entries = append(entries, u)
				case EdgeRet:
					if len(exits) == cap(exits) {
						// Grow by doubling: append grows a large slice by
						// only a quarter, and walks append many exits.
						exits = slices.Grow(exits, len(exits)+64)
					}
					exits = append(exits, exit{u.Site, u.To})
				}
			}
		}
		slices.SortFunc(exits[first:], func(a, b exit) int { return cmp.Compare(a.site, b.site) })
		exitStart = append(exitStart, int32(len(exits)))
		entryIdx[e] = int32(len(exitStart) - 1)
	}
	enter := func(e NodeID, site int32) {
		e = rep(e)
		if unknown.Has(int(e)) {
			return
		}
		if entryIdx[e] == 0 {
			walk(e)
		}
		i := entryIdx[e]
		ex := exits[exitStart[i-1]:exitStart[i]]
		j, _ := slices.BinarySearchFunc(ex, site, func(x exit, site int32) int { return cmp.Compare(x.site, site) })
		for ; j < len(ex) && ex[j].site == site; j++ {
			reach(ex[j].to)
		}
	}

	for _, e := range g.Users(RootF) {
		// Flows start where an undefined value is born; the birth context
		// is unknown (it can leave its function through any return).
		if cut != nil && cut(e.To, RootF) {
			continue
		}
		reach(e.To)
	}
	// Drain the unknown context before taking an entry, so that walks stop
	// as early as possible.
	for len(work) > 0 || len(entries) > 0 {
		if len(work) == 0 {
			e := entries[len(entries)-1]
			entries = entries[:len(entries)-1]
			enter(e.To, e.Site)
			continue
		}
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range usersOf(n) {
			// A user edge from n to e.To corresponds to the dependence
			// edge e.To → n.
			if cut != nil && cut(e.To, n) {
				continue
			}
			if e.Kind == EdgeCall && !opts.ContextInsensitive {
				entries = append(entries, e)
			} else {
				// Intraprocedural edges, and return edges, which the
				// unknown context may leave through towards any site.
				reach(e.To)
			}
		}
	}
	return gm
}

// CriticalUses lists the VFG nodes whose values are used at critical
// operations, mapping each node to the set of critical instructions using
// it. Constants at critical operations are always defined and omitted.
func CriticalUses(g *Graph) map[NodeID][]ir.Instr {
	uses := make(map[NodeID][]ir.Instr)
	for _, fn := range g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				vals, ok := ir.IsCritical(in)
				if !ok {
					continue
				}
				for _, v := range vals {
					if r, isReg := v.(*ir.Register); isReg {
						if n := g.RegNode(r); n != NoNode {
							uses[n] = append(uses[n], in)
						}
					}
				}
			}
		}
	}
	return uses
}

// ReachesCritical computes, context-insensitively, the set of nodes whose
// values may flow into a node used at a critical operation. Only these
// nodes ever need shadow tracking; the percentage of such nodes is
// Table 1's %B column.
func ReachesCritical(g *Graph) []bool {
	reach := make([]bool, len(g.Nodes))
	var work []NodeID
	for n := range CriticalUses(g) {
		if !reach[n] {
			reach[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.Deps(n) {
			if t := e.To; !IsRoot(t) && !reach[t] {
				reach[t] = true
				work = append(work, t)
			}
		}
	}
	return reach
}
