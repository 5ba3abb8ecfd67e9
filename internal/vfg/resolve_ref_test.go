package vfg

import "github.com/valueflow/usher/internal/bitset"

// ctx is a resolution context: the call site through which undefinedness
// entered the current function, or unknown (the widened top context).
const ctxUnknown = 0

// referenceResolveWith is the dense resolver ResolveWith replaced,
// kept verbatim as a test-only reference: it walks every callee body once
// per calling context. TestResolveMatchesReference holds ResolveWith to
// it on every input.
//
// The propagation state is kept in dense bit sets rather than per-node
// maps: the ⊥ frontier is one bit per node, the visited-in-unknown-context
// set is one bit per node, and the visited-in-specific-context sets are
// per-node context bit vectors, one allocated for every node reached
// under a specific call-site context. It never mutates the graph.
func referenceResolveWith(g *Graph, opts ResolveOptions) *Gamma {
	cut := opts.Cut
	nn := len(g.Nodes)
	gm := &Gamma{g: g, n: nn, bottom: bitset.New(nn)}

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
		for _, e := range g.Users(s.node) {
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
