package vfg

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// Equivalence partitions VFG nodes into access-equivalence classes: nodes
// whose dependence edges are identical (same targets, kinds and call
// sites) necessarily resolve to the same definedness, so a resolver could
// run once per class. This is the node-merging technique of Hardekopf &
// Lin that the paper applies to its VFGs (§4.1). Here the partition only
// sizes what merging would remove (the ablation's merged-away column):
// building it costs more than resolving every node.
type Equivalence struct {
	rep     []NodeID // node id -> representative node id
	classes int
}

// Rep returns the representative node id of n.
func (eq *Equivalence) Rep(n NodeID) NodeID { return eq.rep[n] }

// Merged returns how many nodes were merged away.
func (eq *Equivalence) Merged(g *Graph) int { return len(g.Nodes) - eq.classes }

// ComputeAccessEquivalence builds the partition. Root nodes are never
// merged.
func ComputeAccessEquivalence(g *Graph) *Equivalence {
	n := len(g.Nodes)
	eq := &Equivalence{rep: make([]NodeID, n)}
	byKey := make(map[string]NodeID)
	var deps []Edge
	var key []byte
	for id := range g.Nodes {
		v := NodeID(id)
		if IsRoot(v) {
			eq.rep[v] = v
			eq.classes++
			continue
		}
		deps = append(deps[:0], g.Deps(v)...)
		key = depKey(key[:0], g.Nodes[v].Kind, deps)
		if rep, ok := byKey[string(key)]; ok {
			eq.rep[v] = rep
		} else {
			byKey[string(key)] = v
			eq.rep[v] = v
			eq.classes++
		}
	}
	return eq
}

// depKey appends to buf a canonical encoding of a node's kind and its
// dependence edges, which it sorts in place by (target, kind, site), as
// fixed-width bytes. Call-site ids are global, so edges of different
// functions never collide. The kind keeps a register from merging with
// a memory version of a different function (harmless but confusing in
// reports).
func depKey(buf []byte, kind NodeKind, deps []Edge) []byte {
	slices.SortFunc(deps, func(a, b Edge) int {
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	})
	buf = append(buf, byte(kind))
	for _, e := range deps {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
		buf = append(buf, byte(e.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Site))
	}
	return buf
}
