// Package vfg builds the paper's value-flow graph (§3.2) and resolves the
// definedness of every value on it (§3.3).
//
// Nodes represent SSA definitions: one per virtual register (top-level
// variable) and one per memory SSA version (address-taken variable), plus
// the two roots T (defined) and F (undefined). A dependence edge v → u
// means v's value flows from u. Interprocedural edges carry their call
// site so that definedness resolution can match calls with returns
// (1-callsite context sensitivity).
//
// Stores support three update flavors:
//
//   - strong: the pointer uniquely targets a concrete location (a global
//     cell or a non-recursive function's stack cell): the old version is
//     killed.
//   - semi-strong: the pointer uniquely targets one abstract object whose
//     allocation result register dominates the store; the value flow is
//     rerouted around the allocation's own (possibly undefined) initial
//     state to the version before the allocation (Figure 6).
//   - weak: everything else; the old version flows into the new one.
//
// A built graph is sealed and compact: nodes have dense ids, and every
// node's dependences and users are slices of two shared, pointer-free edge
// arrays in CSR form (see DESIGN.md, "VFG data layout").
package vfg

import (
	"fmt"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
)

// NodeKind classifies VFG nodes.
type NodeKind uint8

// Node kinds.
const (
	NodeRootT NodeKind = iota
	NodeRootF
	NodeReg
	NodeMem
)

// EdgeKind classifies dependence edges.
type EdgeKind uint8

// Edge kinds. Call and Ret edges carry their call site.
const (
	EdgeIntra EdgeKind = iota
	// EdgeCall links a formal parameter (or callee entry memory version)
	// to the actual at a call site: crossing into the callee.
	EdgeCall
	// EdgeRet links a call result (or post-call memory version) to the
	// callee's returned value (or exit memory version): crossing out.
	EdgeRet
)

// NodeID is a node's dense index in Graph.Nodes.
type NodeID int32

// NoNode is what lookups return for a value the graph does not model.
// Γ reads it as ⊥.
const NoNode NodeID = -1

// The two roots are the first two nodes of every graph.
const (
	// RootT is the root T: defined.
	RootT NodeID = 0
	// RootF is the root F: undefined.
	RootF NodeID = 1
)

// IsRoot reports whether id is T or F.
func IsRoot(id NodeID) bool { return id == RootT || id == RootF }

// Node is one entry of the node table. It holds no edges: a node's
// dependences and users are slices of the graph's shared edge arrays
// (Graph.Deps, Graph.Users).
type Node struct {
	Kind NodeKind
	// Reg is set for NodeReg.
	Reg *ir.Register
	// Mem is set for NodeMem.
	Mem *memssa.Def
}

// Fn returns the function containing the node's definition (nil for the
// roots).
func (n Node) Fn() *ir.Function {
	switch n.Kind {
	case NodeReg:
		return n.Reg.Fn
	case NodeMem:
		return n.Mem.Fn
	}
	return nil
}

func (n Node) String() string {
	switch n.Kind {
	case NodeRootT:
		return "T"
	case NodeRootF:
		return "F"
	case NodeReg:
		return fmt.Sprintf("%s:%s", n.Reg.Fn.Name, n.Reg)
	default:
		return fmt.Sprintf("%s:%s", n.Mem.Fn.Name, n.Mem)
	}
}

// Edge is one dependence edge or, in a users list, one reversed
// dependence. It holds no pointers, so the edge arrays are never scanned
// by the garbage collector.
type Edge struct {
	To NodeID
	// Site is the dense id of the call site (see Graph.Site) on call and
	// return edges, 0 on intraprocedural ones.
	Site int32
	Kind EdgeKind
}

// UpdateKind classifies how a store's chi was handled.
type UpdateKind int

// Store update flavors.
const (
	UpdateStrong UpdateKind = iota
	UpdateSemiStrong
	// UpdateWeakSingleton: the pointer targets a single abstract object
	// but neither a strong nor a semi-strong update applies.
	UpdateWeakSingleton
	// UpdateWeakMulti: the pointer may target several objects.
	UpdateWeakMulti
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateStrong:
		return "strong"
	case UpdateSemiStrong:
		return "semi-strong"
	case UpdateWeakSingleton:
		return "weak-singleton"
	default:
		return "weak-multi"
	}
}

// Options configures graph construction.
type Options struct {
	// TopLevelOnly builds the Usher_TL variant: only top-level variables
	// are modelled; every load conservatively depends on F.
	TopLevelOnly bool
	// NoSemiStrong disables semi-strong updates (ablation).
	NoSemiStrong bool
}

// Graph is the whole-program VFG. Build returns it sealed: nothing about
// it changes afterwards, so one graph may be shared read-only by any
// number of concurrent consumers.
type Graph struct {
	Prog    *ir.Program
	Pointer *pointer.Result
	Mem     *memssa.Info
	Opts    Options

	// Nodes is the node table, indexed by NodeID: T and F, then every
	// other node in the order construction first needed it. The golden
	// ⊥ sets (testdata/golden/analysis.json) index this numbering.
	Nodes []Node

	// Dependences and users in CSR form: node n's dependences are
	// deps[depStart[n]:depStart[n+1]] and its users are
	// users[userStart[n]:userStart[n+1]]. A node's dependences are a set
	// of distinct (target, kind, site) triples in first-occurrence order;
	// its users are exactly the reversed dependences, in node order.
	depStart, userStart []int32
	deps, users         []Edge

	// fns locates each function's block of the dense lookup tables:
	// register r's node is regNodes[fns[r.Fn].reg+r.ID], NoNode where
	// nothing was built. Memory defs are looked up only during
	// construction (builder.memNodes).
	fns      map[*ir.Function]fnSpan
	regNodes []NodeID

	// sites[id] is the call site with dense id id, numbered from 1 in the
	// order construction first gave a site an edge; sites[0] is nil, the
	// unknown context.
	sites []*ir.Call

	// StoreUpdates records the update flavor chosen per store chi.
	StoreUpdates map[*memssa.Def]UpdateKind
	// SemiStrongCuts counts applications of the semi-strong rule.
	SemiStrongCuts int

	sealed bool
}

// fnSpan is one function's block in the dense lookup tables.
type fnSpan struct {
	reg, nreg int32
	mem, nmem int32
}

// Sealed reports whether the graph is complete and immutable (set by
// Build before returning). The pipeline artifact store refuses to share
// an unsealed graph.
func (g *Graph) Sealed() bool { return g.sealed }

// RegNode returns the node of a register definition, or NoNode if the
// graph does not model the register (callers treat that conservatively).
// Every parameter and instruction result of a function with a body has a
// node.
func (g *Graph) RegNode(r *ir.Register) NodeID {
	sp, ok := g.fns[r.Fn]
	if !ok || r.ID >= int(sp.nreg) {
		return NoNode
	}
	return g.regNodes[sp.reg+int32(r.ID)]
}

// Deps returns the nodes n's value flows from. The slice aliases the
// graph's edge array and must not be modified.
func (g *Graph) Deps(n NodeID) []Edge {
	lo, hi := g.depStart[n], g.depStart[n+1]
	return g.deps[lo:hi:hi]
}

// Users returns the reversed dependences of n: one edge to every node
// whose value flows from n, with that dependence's kind and site. The
// slice aliases the graph's edge array and must not be modified.
func (g *Graph) Users(n NodeID) []Edge {
	lo, hi := g.userStart[n], g.userStart[n+1]
	return g.users[lo:hi:hi]
}

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int { return len(g.deps) }

// NumSites returns the number of call sites on interprocedural edges;
// their dense ids are 1..NumSites.
func (g *Graph) NumSites() int { return len(g.sites) - 1 }

// Site returns the call site with dense id id (nil for 0).
func (g *Graph) Site(id int32) *ir.Call { return g.sites[id] }
