package vfg

import (
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

// NewGammaFromBits reconstructs a Γ from a previously exported ⊥ bit
// vector over g's node ids (see BottomBits). The caller asserts that the
// bits were resolved against a graph with identical node numbering — the
// snapshot warm-start path guarantees it by keying on the program
// fingerprint and re-checking the node count.
func NewGammaFromBits(g *Graph, bottom *bitset.Set) *Gamma {
	return &Gamma{g: g, n: len(g.Nodes), bottom: bottom}
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

// NodeCount returns the node count the resolution ran against.
func (gm *Gamma) NodeCount() int { return gm.n }

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

// ctx is a resolution context: the call site through which undefinedness
// entered the current function, or unknown (the widened top context).
const ctxUnknown = 0

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
// The propagation state is kept in dense bit sets rather than per-node
// maps: the ⊥ frontier is one bit per node, the visited-in-unknown-context
// set is one bit per node, and the visited-in-specific-context sets are
// per-node context bit vectors allocated only for nodes that are ever
// reached under a specific call-site context. Resolution performs no
// allocation proportional to the number of (node, context) visits and
// never mutates the graph, so it may run concurrently over a shared graph.
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

	// Context ids: 0 = unknown, otherwise the graph's dense call-site id,
	// which every call and return edge carries.
	numCtx := g.NumSites() + 1

	type state struct {
		node NodeID
		ctx  int32
	}
	// Visited sets: ctxUnknown subsumes every specific context. Reads on
	// nil per-node context sets are fine (a nil *bitset.Set is empty).
	visitedUnknown := bitset.New(nn)
	visitedCtx := make([]*bitset.Set, nn)
	seen := func(n NodeID, ctx int32) bool {
		if visitedUnknown.Has(int(n)) {
			return true
		}
		if ctx == ctxUnknown {
			return false
		}
		return visitedCtx[n].Has(int(ctx))
	}
	mark := func(n NodeID, ctx int32) {
		if ctx == ctxUnknown {
			// Widen: unknown subsumes all specific contexts.
			visitedUnknown.Add(int(n))
			visitedCtx[n] = nil
		} else {
			b := visitedCtx[n]
			if b == nil {
				b = bitset.New(numCtx)
				visitedCtx[n] = b
			}
			b.Add(int(ctx))
		}
		gm.bottom.Add(int(n))
	}

	var work []state
	push := func(n NodeID, ctx int32) {
		if IsRoot(n) {
			return
		}
		n = rep(n)
		if seen(n, ctx) {
			return
		}
		mark(n, ctx)
		work = append(work, state{n, ctx})
	}

	for _, e := range g.Users(RootF) {
		// Flows start where an undefined value is born; the birth context
		// is unknown (it can leave its function through any return).
		if cut != nil && cut(e.To, RootF) {
			continue
		}
		push(e.To, ctxUnknown)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range usersOf(s.node) {
			// A user edge from s.node to e.To corresponds to the
			// dependence edge e.To → s.node.
			if cut != nil && cut(e.To, s.node) {
				continue
			}
			kind := e.Kind
			if opts.ContextInsensitive {
				kind = EdgeIntra
			}
			switch kind {
			case EdgeIntra:
				push(e.To, s.ctx)
			case EdgeCall:
				// Entering the callee at e.Site: remember it (1 level).
				push(e.To, e.Site)
			case EdgeRet:
				// Leaving the callee towards e.Site: allowed if we entered
				// there, or if the entry site is unknown.
				if s.ctx == ctxUnknown || s.ctx == e.Site {
					push(e.To, ctxUnknown)
				}
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
