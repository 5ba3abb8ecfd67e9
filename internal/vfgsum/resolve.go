package vfgsum

import (
	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/vfg"
)

// ctxUnknown is the widened top context, matching vfg's resolution: a
// flow in the unknown context may leave its function through any return.
const ctxUnknown = 0

// Resolve computes Γ over the condensed graph. The result is
// bit-identical to vfg.Resolve on the graph the summary was built from
// (or to vfg.ResolveCut under the cut BuildCut was given).
//
// States are (supernode, context) pairs. The first time a region is
// reached, its intraprocedural closure is walked once: every closure
// member becomes ⊥ and the closure's interprocedural exits are recorded
// as the region's summary. Call exits are context-independent (entering
// a callee at site s always yields context s) and fire once. Return
// exits are the context-dependent part of the summary: each later entry
// under a new context re-checks only them. A return exit whose target
// has already been resolved under the unknown context is dominated by
// that stronger summary and is pruned from the list, so hot regions'
// re-checks shrink as resolution proceeds.
//
// Resolution is sequential and deterministic; it never mutates the
// summary, so concurrent resolutions may share one Summary.
func (s *Summary) Resolve() *vfg.Gamma {
	nn := len(s.g.Nodes)
	bottom := bitset.New(nn)
	nsn := s.nsn

	// Visited (supernode, ctx) states; unknown subsumes every specific
	// context, exactly as in the dense resolver.
	seenUnknown := bitset.New(nsn)
	seenCtx := make([]*bitset.Set, nsn)
	numCtx := s.numSites + 1

	type state struct {
		sn  int32
		ctx int32
	}
	var work []state
	push := func(sn, ctx int32) {
		if seenUnknown.Has(int(sn)) {
			return
		}
		if ctx == ctxUnknown {
			seenUnknown.Add(int(sn))
			seenCtx[sn] = nil
		} else {
			if seenCtx[sn].Has(int(ctx)) {
				return
			}
			b := seenCtx[sn]
			if b == nil {
				b = bitset.New(numCtx)
				seenCtx[sn] = b
			}
			b.Add(int(ctx))
		}
		work = append(work, state{sn, ctx})
	}

	// Per-region summaries, materialized lazily on first entry.
	expanded := bitset.New(nsn)
	marked := bitset.New(nsn)
	callEx := make([][]exitEdge, nsn)
	retEx := make([][]exitEdge, nsn)
	visitGen := make([]int32, nsn)
	for i := range visitGen {
		visitGen[i] = -1
	}
	var stack []int32
	expand := func(sn int32) {
		// The walk is complete per region — it stops on this walk's own
		// visited stamps, never on already-⊥ regions — because the exits
		// collected here summarize everything reachable from sn, not just
		// the unvisited remainder.
		stack = append(stack[:0], sn)
		visitGen[sn] = sn
		var ce, re []exitEdge
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if marked.Add(int(t)) {
				for _, m := range s.memList[s.memStart[t]:s.memStart[t+1]] {
					bottom.Add(int(m))
				}
			}
			for _, v := range s.adjList[s.adjStart[t]:s.adjStart[t+1]] {
				if visitGen[v] != sn {
					visitGen[v] = sn
					stack = append(stack, v)
				}
			}
			ce = append(ce, s.callList[s.callStart[t]:s.callStart[t+1]]...)
			re = append(re, s.retList[s.retStart[t]:s.retStart[t+1]]...)
		}
		callEx[sn], retEx[sn] = ce, re
	}

	for _, sn := range s.seeds {
		push(sn, ctxUnknown)
	}
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		if expanded.Add(int(st.sn)) {
			expand(st.sn)
			// Call exits are entry-context-independent: fire them once.
			for _, e := range callEx[st.sn] {
				push(e.sn, e.site)
			}
		}
		// Return exits: leaving towards site e.site is allowed when the
		// flow entered there or the entry context is unknown. Exits whose
		// target is already ⊥ under the unknown context are redundant
		// summaries — compact them out in place.
		re := retEx[st.sn]
		keep := re[:0]
		for _, e := range re {
			if seenUnknown.Has(int(e.sn)) {
				continue
			}
			if st.ctx == ctxUnknown || st.ctx == e.site {
				push(e.sn, ctxUnknown)
				continue
			}
			keep = append(keep, e)
		}
		retEx[st.sn] = keep
	}
	return vfg.NewGammaFromBits(s.g, bottom)
}

// ResolveCut builds a cut-aware summary of g and resolves it — the
// summary-based equivalent of vfg.ResolveCut, used by Opt II's
// re-resolution. The cached cut-free summary cannot be reused: a cut
// edge inside a condensed region would be traversed through the region's
// supernode.
func ResolveCut(g *vfg.Graph, cut func(from, to vfg.NodeID) bool) *vfg.Gamma {
	return BuildCut(g, cut).Resolve()
}
