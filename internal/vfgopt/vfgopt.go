// Package vfgopt implements the paper's two VFG-based
// instrumentation-reducing optimizations (§3.5):
//
//   - Opt I, value-flow simplification: the shadow of a top-level variable
//     is the conjunction of the shadows of the sources of its Must
//     Flow-from Closure (MFC, Definition 2); interior nodes of the closure
//     need no shadow propagation of their own.
//   - Opt II, redundant check elimination (Algorithm 1): when an undefined
//     value is guaranteed to be detected at a critical statement s, its
//     onward flow into values defined at statements dominated by s can be
//     treated as defined, disabling the downstream checks.
package vfgopt

import (
	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/vfg"
)

// MFC computes the Must Flow-from Closure of a register: the set of
// registers whose values definitely flow into it through copies and
// binary operations (Definition 2). The returned closure includes x
// itself; Sources are the members whose definitions are not copies or
// binary operations (loads, calls, parameters, phis, allocs).
type MFC struct {
	// All is every register in the closure.
	All []*ir.Register
	// Sources are the closure's source registers.
	Sources []*ir.Register
	// Interior is len(All) - len(Sources): the propagations Opt I saves.
	Interior int
}

// ComputeMFC walks back from x through copy and binop definitions.
func ComputeMFC(x *ir.Register) *MFC {
	m := &MFC{}
	seen := make(map[*ir.Register]bool)
	var walk func(r *ir.Register)
	walk = func(r *ir.Register) {
		if seen[r] {
			return
		}
		seen[r] = true
		m.All = append(m.All, r)
		switch def := r.Def.(type) {
		case *ir.Copy:
			if src, ok := def.Src.(*ir.Register); ok {
				walk(src)
				return
			}
			// Constant copy: terminates at T; r is interior with no
			// register sources of its own.
			return
		case *ir.BinOp:
			interior := false
			if xr, ok := def.X.(*ir.Register); ok {
				walk(xr)
				interior = true
			}
			if yr, ok := def.Y.(*ir.Register); ok {
				walk(yr)
				interior = true
			}
			_ = interior
			return
		default:
			m.Sources = append(m.Sources, r)
		}
	}
	walk(x)
	// Count interiors: members that are not sources.
	m.Interior = len(m.All) - len(m.Sources)
	return m
}

// BottomSources returns the MFC's sources whose VFG state is ⊥. The
// shadow of x is the conjunction of exactly these shadows (⊤ sources
// contribute T).
func (m *MFC) BottomSources(g *vfg.Graph, gm *vfg.Gamma) []*ir.Register {
	var out []*ir.Register
	for _, s := range m.Sources {
		if gm.Of(g.RegNode(s)) == vfg.Bottom {
			out = append(out, s)
		}
	}
	return out
}

// Simplified reports whether Opt I changes x's shadow computation: the
// closure has interior nodes to skip over.
func (m *MFC) Simplified() bool { return m.Interior > 1 || (m.Interior == 1 && len(m.Sources) > 0) }

// RedundantCheckElim applies Algorithm 1: for every ⊥ top-level variable
// x used at a critical statement s, flows out of x's extended closure
// into values defined at statements dominated by s are redirected to T,
// and Γ is re-resolved on the modified graph. It returns the new Γ and
// the number of redirected nodes (the R column of Table 1).
//
// The instrumentation must still be generated over the *original* VFG
// using the returned Γ, so that all shadow values remain initialized
// (line 9 of Algorithm 1).
func RedundantCheckElim(g *vfg.Graph, gm *vfg.Gamma) (*vfg.Gamma, int) {
	type edge struct{ from, to vfg.NodeID }
	cuts := make(map[edge]bool)
	redirected := make(map[vfg.NodeID]bool)

	// Dominator trees per function, built on demand.
	doms := make(map[*ir.Function]*cfg.DomTree)
	domOf := func(fn *ir.Function) *cfg.DomTree {
		if d, ok := doms[fn]; ok {
			return d
		}
		d := cfg.NewDomTree(fn)
		doms[fn] = d
		return d
	}

	for node, stmts := range vfg.CriticalUses(g) {
		if g.Nodes[node].Kind != vfg.NodeReg || gm.Of(node) != vfg.Bottom {
			continue
		}
		m := ComputeMFC(g.Nodes[node].Reg)
		// The extended closure x̄: MFC registers plus the concrete
		// address-taken versions read by the closure's loads (line 4).
		closure := make(map[vfg.NodeID]bool)
		for _, r := range m.All {
			if rn := g.RegNode(r); rn != vfg.NoNode {
				closure[rn] = true
			}
		}
		for _, r := range m.All {
			if _, isLoad := r.Def.(*ir.Load); !isLoad {
				continue
			}
			ln := g.RegNode(r)
			if ln == vfg.NoNode {
				continue
			}
			for _, e := range g.Deps(ln) {
				if t := g.Nodes[e.To]; t.Kind == vfg.NodeMem && concreteVar(g, t.Mem.Var) {
					closure[e.To] = true
				}
			}
		}
		for _, s := range stmts {
			dom := domOf(s.Parent().Fn)
			// R_x: users r of the closure that are outside it, whose
			// defining statement is dominated by s.
			for t := range closure {
				for _, ue := range g.Users(t) {
					r := ue.To
					if closure[r] {
						continue
					}
					rDef := defInstr(g.Nodes[r])
					if rDef == nil || rDef.Parent() == nil || rDef.Parent().Fn != s.Parent().Fn {
						continue
					}
					if !dom.InstrDominates(s, rDef) {
						continue
					}
					cuts[edge{r, t}] = true
					redirected[r] = true
				}
			}
		}
	}
	if len(cuts) == 0 {
		return gm, 0
	}
	newGamma := vfg.ResolveCut(g, func(from, to vfg.NodeID) bool {
		return cuts[edge{from, to}]
	})
	return newGamma, len(redirected)
}

// defInstr returns the IR instruction that defines a VFG node's value, if
// any.
func defInstr(n vfg.Node) ir.Instr {
	switch n.Kind {
	case vfg.NodeReg:
		return n.Reg.Def
	case vfg.NodeMem:
		if n.Mem.Kind == memssa.DefChi {
			return n.Mem.Instr
		}
	}
	return nil
}

// concreteVar mirrors the graph's notion of a concrete location.
func concreteVar(g *vfg.Graph, v memssa.MemVar) bool {
	if v.Obj.Collapsed() && v.Obj.Size > 1 {
		return false
	}
	switch v.Obj.Kind {
	case ir.ObjGlobal:
		return true
	case ir.ObjStack:
		return !g.Pointer.Recursive(v.Obj.Fn)
	default:
		return false
	}
}
