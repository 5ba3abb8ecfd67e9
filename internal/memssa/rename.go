package memssa

import (
	"sort"

	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
)

// buildFunc versions every tracked variable of fn.
func (info *Info) buildFunc(fn *ir.Function) {
	in, out := info.virtualParams(fn)
	fi := &FuncInfo{
		Fn:          fn,
		InVars:      in,
		OutVars:     out,
		EntryDefs:   make(map[MemVar]*Def),
		Mus:         make(map[int][]Mu),
		Chis:        make(map[int][]*Def),
		Phis:        make(map[*ir.Block][]*Def),
		RetVersions: make(map[int]map[MemVar]*Def),
	}
	info.Funcs[fn] = fi

	vars := info.trackedVars(fn)
	if len(vars) == 0 {
		return
	}
	varIdx := make(map[MemVar]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	inSet := make(map[MemVar]bool, len(in))
	for _, v := range in {
		inSet[v] = true
	}

	versions := make([]int32, len(vars))
	newDef := func(v MemVar, kind DefKind) *Def {
		d := &Def{ID: int32(len(fi.AllDefs)), Var: v, Version: versions[varIdx[v]], Kind: kind, Fn: fn}
		versions[varIdx[v]]++
		fi.AllDefs = append(fi.AllDefs, d)
		return d
	}

	// chiVarsAt returns the variables chi-defined at an instruction, and
	// muVarsAt the variables mu-used.
	chiVarsAt := func(in ir.Instr) []MemVar {
		switch in := in.(type) {
		case *ir.Store:
			return info.locVars(info.Pointer.PointsTo(in.Addr))
		case *ir.MemSet:
			return info.rangeVars(info.Pointer.PointsTo(in.To))
		case *ir.MemCopy:
			return info.rangeVars(info.Pointer.PointsTo(in.To))
		case *ir.Alloc:
			return allocVars(in.Obj)
		case *ir.Call:
			seen := make(map[MemVar]bool)
			var vs []MemVar
			for _, callee := range info.Pointer.Callees(in) {
				cfi := info.Funcs[callee]
				var outs []MemVar
				if cfi != nil {
					outs = cfi.OutVars
				} else {
					_, outs = info.virtualParams(callee)
				}
				for _, v := range outs {
					if !seen[v] {
						seen[v] = true
						vs = append(vs, v)
					}
				}
			}
			sortVars(vs)
			return vs
		}
		return nil
	}
	muVarsAt := func(in ir.Instr) []MemVar {
		switch in := in.(type) {
		case *ir.Load:
			return info.locVars(info.Pointer.PointsTo(in.Addr))
		case *ir.MemCopy:
			return info.rangeVars(info.Pointer.PointsTo(in.From))
		case *ir.Call:
			seen := make(map[MemVar]bool)
			var vs []MemVar
			for _, callee := range info.Pointer.Callees(in) {
				cfi := info.Funcs[callee]
				var ins []MemVar
				if cfi != nil {
					ins = cfi.InVars
				} else {
					ins, _ = info.virtualParams(callee)
				}
				for _, v := range ins {
					if !seen[v] {
						seen[v] = true
						vs = append(vs, v)
					}
				}
			}
			sortVars(vs)
			return vs
		}
		return nil
	}

	ir.ComputeCFG(fn)
	dom := cfg.NewDomTree(fn)
	df := cfg.DominanceFrontiers(dom)
	entry := fn.Entry()

	// Entry definitions.
	entryDefs := make([]*Def, len(vars))
	for i, v := range vars {
		kind := DefEntryUndef
		if inSet[v] {
			kind = DefEntry
		}
		d := newDef(v, kind)
		entryDefs[i] = d
		fi.EntryDefs[v] = d
	}

	// Precompute the chi/mu variable lists per instruction once; the
	// points-to and callee lookups behind them are too expensive to
	// repeat per variable.
	chiAt := make(map[int][]MemVar)
	muAt := make(map[int][]MemVar)
	defBlocksOf := make([]map[*ir.Block]bool, len(vars))
	for i := range vars {
		defBlocksOf[i] = map[*ir.Block]bool{entry: true}
	}
	for _, b := range fn.Blocks {
		for _, instr := range b.Instrs {
			cvs := chiVarsAt(instr)
			if len(cvs) > 0 {
				chiAt[instr.Label()] = cvs
				for _, v := range cvs {
					defBlocksOf[varIdx[v]][b] = true
				}
			}
			if mvs := muVarsAt(instr); len(mvs) > 0 {
				muAt[instr.Label()] = mvs
			}
		}
	}

	// Phi placement: iterated dominance frontier of the chi-def blocks
	// (plus the entry, which defines everything).
	type phiRec struct {
		def *Def
		idx int
	}
	phiRecs := make(map[*ir.Block][]phiRec)
	for i, v := range vars {
		defBlocks := defBlocksOf[i]
		work := make([]*ir.Block, 0, len(defBlocks))
		for b := range defBlocks {
			work = append(work, b)
		}
		// The worklist is seeded from map iteration; sort it so phi
		// creation order — and with it version numbering and every
		// downstream artifact keyed by def order (VFG node ids, the golden
		// ⊥ sets) — is identical on every run.
		sort.Slice(work, func(x, y int) bool { return work[x].ID < work[y].ID })
		placed := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if placed[fb] {
					continue
				}
				placed[fb] = true
				d := newDef(v, DefPhi)
				d.Block = fb
				d.PhiArgs = make([]*Def, len(fb.Preds))
				phiRecs[fb] = append(phiRecs[fb], phiRec{d, i})
				fi.Phis[fb] = append(fi.Phis[fb], d)
				if !defBlocks[fb] {
					defBlocks[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Renaming walk.
	var rename func(b *ir.Block, cur []*Def)
	rename = func(b *ir.Block, cur []*Def) {
		cur = append([]*Def(nil), cur...)
		for _, pr := range phiRecs[b] {
			cur[pr.idx] = pr.def
		}
		for _, instr := range b.Instrs {
			for _, v := range muAt[instr.Label()] {
				fi.Mus[instr.Label()] = append(fi.Mus[instr.Label()],
					Mu{Var: v, Use: cur[varIdx[v]]})
			}
			for _, v := range chiAt[instr.Label()] {
				d := newDef(v, DefChi)
				d.Instr = instr
				d.Prev = cur[varIdx[v]]
				fi.Chis[instr.Label()] = append(fi.Chis[instr.Label()], d)
				cur[varIdx[v]] = d
			}
			if ret, ok := instr.(*ir.Ret); ok {
				m := make(map[MemVar]*Def, len(fi.OutVars))
				for _, v := range fi.OutVars {
					m[v] = cur[varIdx[v]]
				}
				fi.RetVersions[ret.Label()] = m
			}
		}
		for _, s := range b.Succs {
			predIdx := -1
			for i, p := range s.Preds {
				if p == b {
					predIdx = i
					break
				}
			}
			for _, pr := range phiRecs[s] {
				pr.def.PhiArgs[predIdx] = cur[pr.idx]
			}
		}
		for _, kid := range dom.Children(b) {
			rename(kid, cur)
		}
	}
	rename(entry, entryDefs)
}
