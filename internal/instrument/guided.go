package instrument

import (
	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgopt"
)

// GuidedOptions selects the optional VFG-based optimizations (§3.5).
type GuidedOptions struct {
	// OptI enables value-flow simplification over Must Flow-from
	// Closures.
	OptI bool
	// OptII enables redundant check elimination (Algorithm 1).
	OptII bool
	// MemoryFull instruments every allocation and store unconditionally.
	// This is required for the Usher_TL configuration, whose VFG does not
	// model address-taken variables and therefore cannot prove any memory
	// shadow unnecessary.
	MemoryFull bool
	// OptIII enables dominated same-value check elimination, an extension
	// in the spirit of the paper's future work (§6): when one SSA value
	// is consumed by several critical operations and one check site
	// dominates another, the dominated check is redundant — the value's
	// shadow cannot change between the two, so any error is already
	// reported at the dominating site.
	OptIII bool
}

// GuidedResult carries the plan and the optimization statistics reported
// in Table 1.
type GuidedResult struct {
	Plan *Plan
	// Gamma is the definedness used for instrumentation (re-resolved when
	// Opt II is enabled).
	Gamma *vfg.Gamma
	// MFCsSimplified counts the closures Opt I simplified (Table 1's S).
	MFCsSimplified int
	// Redirected counts the nodes Opt II redirected to T (Table 1's R).
	Redirected int
	// ChecksElided counts the checks removed by Opt III.
	ChecksElided int
	// Demanded counts VFG nodes that required tracking.
	Demanded int
}

// Guided computes the paper's guided instrumentation (§3.4): starting
// from the critical operations that may consume undefined values, it
// walks the VFG backwards, emitting the Figure 7 items. ⊤ registers need
// no shadow slots at all (their shadow is the constant T); ⊤ memory
// versions produced by allocations and strong-update stores get a single
// strong shadow write; everything else propagates.
func Guided(name string, g *vfg.Graph, gm *vfg.Gamma, opts GuidedOptions) *GuidedResult {
	redirected := 0
	if opts.OptII {
		gm, redirected = vfgopt.RedundantCheckElim(g, gm)
	}
	return Emit(name, g, gm, redirected, opts)
}

// Emit is the plan-emission pass proper: it instruments against an
// already-resolved Γ. Opt II runs upstream (see internal/pipeline's optII
// pass) and hands its re-resolved Γ plus redirect count here, so several
// configurations can share one Opt II artifact; Guided wraps both steps
// for callers outside the pipeline. opts.OptII is ignored.
func Emit(name string, g *vfg.Graph, gm *vfg.Gamma, redirected int, opts GuidedOptions) *GuidedResult {
	res := &GuidedResult{Gamma: gm, Redirected: redirected}

	plan := &Plan{Name: name, Fns: make(map[*ir.Function]*FnPlan)}
	res.Plan = plan
	for _, fn := range g.Prog.Funcs {
		if fn.HasBody {
			plan.Fns[fn] = &FnPlan{
				Fn:        fn,
				Items:     make(map[int][]Item),
				ParamRecv: make([]bool, len(fn.Params)),
				ParamSetT: make([]bool, len(fn.Params)),
			}
		}
	}

	in := &instrumenter{
		g:        g,
		gm:       gm,
		plan:     plan,
		opts:     opts,
		demanded: make([]bool, len(g.Nodes)),
		memsets:  make(map[ir.Instr]bool),
		mfcCache: make(map[*ir.Register]*vfgopt.MFC),
	}
	in.seedChecks()
	if opts.MemoryFull {
		in.seedFullMemory()
	}
	in.run()
	res.MFCsSimplified = in.mfcSimplified
	res.ChecksElided = in.checksElided
	res.Demanded = in.ndemanded
	return res
}

type instrumenter struct {
	g    *vfg.Graph
	gm   *vfg.Gamma
	plan *Plan
	opts GuidedOptions

	demanded  []bool
	ndemanded int
	work      []vfg.NodeID
	// memsets dedups MemSet items per allocation/store instruction.
	memsets       map[ir.Instr]bool
	mfcCache      map[*ir.Register]*vfgopt.MFC
	mfcSimplified int
	checksElided  int
}

func (in *instrumenter) demand(n vfg.NodeID) {
	if n == vfg.NoNode || vfg.IsRoot(n) || in.demanded[n] {
		return
	}
	in.demanded[n] = true
	in.ndemanded++
	in.work = append(in.work, n)
}

func (in *instrumenter) demandDeps(n vfg.NodeID) {
	for _, e := range in.g.Deps(n) {
		in.demand(e.To)
	}
}

// demandMemDeps forwards demand to n's memory-version sources only.
func (in *instrumenter) demandMemDeps(n vfg.NodeID) {
	for _, e := range in.g.Deps(n) {
		if in.g.Nodes[e.To].Kind == vfg.NodeMem {
			in.demand(e.To)
		}
	}
}

// seedChecks applies [⊥-Check]: a runtime check at every critical
// operation consuming a possibly undefined value ([⊤-Check] emits
// nothing). With OptIII, a check on a value already checked at a
// dominating site is elided: SSA values never change, so the dominating
// check reports the same error first.
func (in *instrumenter) seedChecks() {
	for _, fn := range in.g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		fp := in.plan.Fns[fn]

		type cand struct {
			instr ir.Instr
			val   ir.Value
			node  vfg.NodeID
		}
		var cands []cand
		for _, b := range fn.Blocks {
			for _, instr := range b.Instrs {
				vals, critical := ir.IsCritical(instr)
				if !critical {
					continue
				}
				for _, v := range vals {
					r, isReg := v.(*ir.Register)
					if !isReg {
						continue
					}
					n := in.g.RegNode(r)
					if in.gm.Of(n) == vfg.Bottom {
						cands = append(cands, cand{instr, v, n})
					}
				}
			}
		}

		drop := make(map[int]bool)
		if in.opts.OptIII && len(cands) > 1 {
			dom := cfg.NewDomTree(fn)
			// Group candidates by their definedness representative: the
			// register whose shadow the checked value's shadow provably
			// equals (through copies, field addresses, and operations
			// whose other operands are ⊤). A check dominated by a check
			// of the same representative is redundant.
			byNode := make(map[vfg.NodeID][]int)
			for i, c := range cands {
				rep := in.defednessRep(c.val.(*ir.Register))
				byNode[in.g.RegNode(rep)] = append(byNode[in.g.RegNode(rep)], i)
			}
			for _, idxs := range byNode {
				for _, i := range idxs {
					if drop[i] {
						continue
					}
					for _, j := range idxs {
						if i == j || drop[j] {
							continue
						}
						if dom.InstrDominates(cands[i].instr, cands[j].instr) {
							drop[j] = true
							in.checksElided++
						}
					}
				}
			}
		}

		// Emit remaining checks, grouped per instruction in program order.
		byInstr := make(map[ir.Instr][]ir.Value)
		var order []ir.Instr
		for i, c := range cands {
			if drop[i] {
				continue
			}
			if _, seen := byInstr[c.instr]; !seen {
				order = append(order, c.instr)
			}
			byInstr[c.instr] = append(byInstr[c.instr], c.val)
			in.demand(c.node)
		}
		for _, instr := range order {
			fp.add(instr.Label(), Item{Kind: CheckVal, Srcs: byInstr[instr]})
		}
	}
}

// defednessRep walks a register's definition chain through operations
// that preserve definedness exactly — copies, field-address computations,
// index computations with ⊤ indices, and binary operations with one ⊤
// operand — to the register whose shadow value it always equals.
func (in *instrumenter) defednessRep(r *ir.Register) *ir.Register {
	for depth := 0; depth < 64; depth++ {
		var next ir.Value
		switch def := r.Def.(type) {
		case *ir.Copy:
			next = def.Src
		case *ir.FieldAddr:
			next = def.Base
		case *ir.IndexAddr:
			if in.gm.OfValue(def.Idx) == vfg.Top {
				next = def.Base
			}
		case *ir.BinOp:
			xTop := in.gm.OfValue(def.X) == vfg.Top
			yTop := in.gm.OfValue(def.Y) == vfg.Top
			switch {
			case yTop && !xTop:
				next = def.X
			case xTop && !yTop:
				next = def.Y
			}
		}
		nr, ok := next.(*ir.Register)
		if !ok {
			return r
		}
		r = nr
	}
	return r
}

// seedFullMemory instruments every allocation and store (the memory side
// of full instrumentation) and demands the stored values, for
// configurations whose VFG cannot reason about address-taken variables.
func (in *instrumenter) seedFullMemory() {
	for _, fn := range in.g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		fp := in.plan.Fns[fn]
		for _, b := range fn.Blocks {
			for _, instr := range b.Instrs {
				switch instr := instr.(type) {
				case *ir.Alloc:
					kind := MemSetF
					if instr.Obj.ZeroInit {
						kind = MemSetT
					}
					in.memSet(instr, kind)
				case *ir.Store:
					if !in.memsets[instr] {
						in.memsets[instr] = true
						fp.add(instr.Label(), Item{Kind: PropStore, Val: instr.Val})
					}
					in.shadowReg(instr.Val)
					if r, ok := instr.Val.(*ir.Register); ok {
						in.demand(in.g.RegNode(r))
					}
				case *ir.MemSet:
					if !in.memsets[instr] {
						in.memsets[instr] = true
						fp.add(instr.Label(), Item{Kind: MemFill, Val: instr.Val})
					}
					in.shadowReg(instr.Val)
					if r, ok := instr.Val.(*ir.Register); ok {
						in.demand(in.g.RegNode(r))
					}
				case *ir.MemCopy:
					if !in.memsets[instr] {
						in.memsets[instr] = true
						fp.add(instr.Label(), Item{Kind: MemShadowCopy})
					}
				}
			}
		}
	}
}

func (in *instrumenter) run() {
	for len(in.work) > 0 {
		n := in.work[len(in.work)-1]
		in.work = in.work[:len(in.work)-1]
		if in.gm.Of(n) == vfg.Bottom {
			in.processBottom(n)
		} else {
			in.processTop(n)
		}
	}
}

// processTop applies the ⊤ rules: registers are implicitly T (no shadow
// slot); allocation and strong-update memory versions get one strong
// shadow write; pass-through memory versions forward the demand to their
// sources ([⊤-Store_WU/SemiSU], [Phi], [VPara], [VRet]).
func (in *instrumenter) processTop(n vfg.NodeID) {
	if in.g.Nodes[n].Kind == vfg.NodeReg {
		return // [⊤-Assign]/[⊤-Para]: σ is the constant T, no code needed
	}
	d := in.g.Nodes[n].Mem
	switch d.Kind {
	case memssa.DefEntryUndef:
		return
	case memssa.DefEntry, memssa.DefPhi:
		in.demandDeps(n)
	case memssa.DefChi:
		switch instr := d.Instr.(type) {
		case *ir.Alloc:
			// [⊤-Alloc]: σ(*x) := T, once per allocation site.
			in.memSet(instr, MemSetT)
		case *ir.Store:
			if in.g.StoreUpdates[d] == vfg.UpdateStrong {
				// [⊤-Store_SU]: σ(*x) := T.
				in.memSet(instr, MemSetT)
				return
			}
			// [⊤-Store_WU/SemiSU]: rely on the incoming version's shadow
			// being correct; forward the demand to the memory source.
			in.demandMemDeps(n)
		case *ir.MemSet, *ir.MemCopy:
			// [⊤-Intrinsic]: range chis are always weak updates (the range
			// may not cover the object), so ⊤ means the written values AND
			// the incoming version are defined — existing shadows already
			// read T; forward the demand to the memory sources.
			in.demandMemDeps(n)
		case *ir.Call:
			// [VRet]: forward demand through the call.
			in.demandDeps(n)
		}
	}
}

// processBottom applies the ⊥ rules of Figure 7.
func (in *instrumenter) processBottom(n vfg.NodeID) {
	nd := in.g.Nodes[n]
	if nd.Kind == vfg.NodeMem {
		d := nd.Mem
		switch d.Kind {
		case memssa.DefEntry, memssa.DefPhi:
			// [VPara]/[Phi]: memory shadows live in the shadow map and
			// survive joins and calls without code; just forward demand.
			in.demandDeps(n)
		case memssa.DefChi:
			switch instr := d.Instr.(type) {
			case *ir.Alloc:
				// [⊥-Alloc]: σ(*x) := T/F, plus the older versions.
				kind := MemSetF
				if instr.Obj.ZeroInit {
					kind = MemSetT
				}
				in.memSet(instr, kind)
				in.demandDeps(n)
			case *ir.Store:
				// [⊥-Store_*]: σ(*x) := σ(y); the value's shadow and, for
				// weak/semi-strong updates, the older version are tracked.
				fp := in.plan.Fns[instr.Parent().Fn]
				if !in.memsets[instr] {
					in.memsets[instr] = true
					fp.add(instr.Label(), Item{Kind: PropStore, Val: instr.Val})
				}
				in.shadowReg(instr.Val)
				in.demandDeps(n)
			case *ir.MemSet:
				// [⊥-MemSet]: σ(*to+i) := σ(v) over the runtime range; the
				// fill value's shadow and the older versions are tracked.
				fp := in.plan.Fns[instr.Parent().Fn]
				if !in.memsets[instr] {
					in.memsets[instr] = true
					fp.add(instr.Label(), Item{Kind: MemFill, Val: instr.Val})
				}
				in.shadowReg(instr.Val)
				in.demandDeps(n)
			case *ir.MemCopy:
				// [⊥-MemCopy]: σ(*to+i) := σ(*from+i) over the runtime
				// range; the source versions' shadows must be maintained, so
				// demand flows into the source's reaching definitions.
				fp := in.plan.Fns[instr.Parent().Fn]
				if !in.memsets[instr] {
					in.memsets[instr] = true
					fp.add(instr.Label(), Item{Kind: MemShadowCopy})
				}
				in.demandDeps(n)
			case *ir.Call:
				// [VRet]: demand flows into the callee's exit versions.
				in.demandDeps(n)
			}
		}
		return
	}

	// ⊥ register.
	r := nd.Reg
	fp := in.plan.Fns[r.Fn]
	if r.Def == nil {
		// [⊥-Para]: receive the shadow from every call site.
		for i, prm := range r.Fn.Params {
			if prm == r {
				fp.ParamRecv[i] = true
			}
		}
		fp.setShadowed(r)
		in.demandDeps(n) // the actuals
		return
	}
	switch def := r.Def.(type) {
	case *ir.Copy:
		in.emitCompute(fp, n, def.Label(), []ir.Value{def.Src})
	case *ir.BinOp:
		in.emitCompute(fp, n, def.Label(), []ir.Value{def.X, def.Y})
	case *ir.FieldAddr:
		in.emitCompute(fp, n, def.Label(), []ir.Value{def.Base})
	case *ir.IndexAddr:
		in.emitCompute(fp, n, def.Label(), []ir.Value{def.Base, def.Idx})
	case *ir.Phi:
		// [Phi]: the shadow follows the dynamically chosen edge.
		fp.setShadowed(r)
		fp.add(def.Label(), Item{Kind: PropCompute, Dst: r, Srcs: def.Vals})
		in.demandDeps(n)
	case *ir.Load:
		// [⊥-Load]: σ(x) := σ(*y).
		fp.setShadowed(r)
		fp.add(def.Label(), Item{Kind: PropLoad, Dst: r})
		in.demandDeps(n)
	case *ir.Call:
		// [⊥-Ret]: the callee relays its return shadow.
		fp.setShadowed(r)
		for _, callee := range in.g.Pointer.Callees(def) {
			if cp := in.plan.Fns[callee]; cp != nil {
				cp.RetSend = true
			}
		}
		in.demandDeps(n)
	case *ir.Alloc:
		// Allocation results are always defined; unreachable for ⊥.
	}
}

// emitCompute handles [⊥-VCopy]/[⊥-Bop] with optional Opt I
// simplification: when the register heads a non-trivial Must Flow-from
// Closure, its shadow is computed directly from the closure's ⊥ sources,
// skipping the interior propagations.
func (in *instrumenter) emitCompute(fp *FnPlan, n vfg.NodeID, label int, srcs []ir.Value) {
	r := in.g.Nodes[n].Reg
	fp.setShadowed(r)
	if in.opts.OptI {
		m := in.mfcCache[r]
		if m == nil {
			m = vfgopt.ComputeMFC(r)
			in.mfcCache[r] = m
		}
		if m.Simplified() {
			bottom := m.BottomSources(in.g, in.gm)
			vals := make([]ir.Value, len(bottom))
			for i, s := range bottom {
				vals[i] = s
				in.demand(in.g.RegNode(s))
				in.shadowReg(s)
			}
			fp.add(label, Item{Kind: PropCompute, Dst: r, Srcs: vals})
			in.mfcSimplified++
			return
		}
	}
	fp.add(label, Item{Kind: PropCompute, Dst: r, Srcs: srcs})
	in.demandDeps(n)
}

// shadowReg ensures a ⊥ register read by an item has a shadow slot.
func (in *instrumenter) shadowReg(v ir.Value) {
	r, ok := v.(*ir.Register)
	if !ok {
		return
	}
	if in.gm.Of(in.g.RegNode(r)) == vfg.Bottom {
		if fp := in.plan.Fns[r.Fn]; fp != nil {
			fp.setShadowed(r)
		}
	}
}

// memSet emits a whole-object or single-cell strong shadow write, once
// per instruction.
func (in *instrumenter) memSet(instr ir.Instr, kind ItemKind) {
	if in.memsets[instr] {
		return
	}
	in.memsets[instr] = true
	fp := in.plan.Fns[instr.Parent().Fn]
	fp.add(instr.Label(), Item{Kind: kind})
}
