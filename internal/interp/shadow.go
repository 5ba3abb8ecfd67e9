package interp

import (
	"fmt"

	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
)

// ShadowConfig enables shadow execution under an instrumentation plan.
type ShadowConfig struct {
	Plan *instrument.Plan
}

// sbit is a tri-state shadow value. Reading an uninitialized shadow is a
// soundness violation of the instrumentation (the paper's §3.4 guarantees
// guided instrumentation never does this); the shadow machine records it
// in Result.ShadowViolations.
type sbit uint8

const (
	sUninit sbit = iota
	sT
	sF
)

func (s sbit) String() string {
	switch s {
	case sT:
		return "T"
	case sF:
		return "F"
	default:
		return "uninit"
	}
}

// shadowFrame is the shadow half of an activation record: its
// function's plan and item table, and its register shadows. Like the
// rest of the frame it is reused by every call at its depth.
type shadowFrame struct {
	fp    *instrument.FnPlan
	items [][]instrument.Item // label-indexed, shared per function
	sregs []sbit
}

// shadowMachine executes the planned shadow statements alongside the
// interpreter.
type shadowMachine struct {
	m    *Machine
	plan *instrument.Plan

	// pendingRet carries the return shadow back across a call boundary
	// (the paper's σ_g relay); argument shadows go straight into the
	// callee's frame (passArgs).
	pendingRet sbit

	warned map[Site]bool
}

func newShadowMachine(m *Machine, cfg *ShadowConfig) *shadowMachine {
	sm := &shadowMachine{
		m:      m,
		plan:   cfg.Plan,
		warned: make(map[Site]bool),
	}
	// Globals are defined at startup; MSan's runtime likewise maps the
	// data segment to defined shadow.
	for _, inst := range m.globals {
		cells := make([]sbit, len(inst.Cells))
		for i := range cells {
			cells[i] = sT
		}
		inst.shadow = cells
	}
	return sm
}

// planOf returns fn's plan and label-indexed item table (nil, nil when
// the plan does not cover fn).
func (sm *shadowMachine) planOf(fn *ir.Function) (*instrument.FnPlan, [][]instrument.Item) {
	fp := sm.plan.FnPlanOf(fn)
	if fp == nil {
		return nil, nil
	}
	return fp, fp.ItemTable()
}

func (sm *shadowMachine) violation(format string, args ...any) {
	if len(sm.m.res.ShadowViolations) < 100 {
		sm.m.res.ShadowViolations = append(sm.m.res.ShadowViolations, fmt.Sprintf(format, args...))
	}
}

// shadowOf evaluates the shadow of an operand. Constants, function
// addresses and global addresses are always defined; unshadowed registers
// are statically known defined.
func (sm *shadowMachine) shadowOf(fr *frame, v ir.Value) sbit {
	r, ok := v.(*ir.Register)
	if !ok {
		return sT
	}
	if fr.fp == nil || !fr.fp.Shadowed(r) {
		return sT
	}
	s := fr.sregs[r.ID]
	if s == sUninit {
		sm.violation("read of uninitialized register shadow σ(%s) in %s", r, fr.fp.Fn.Name)
		return sT
	}
	return s
}

// cellShadow returns a pointer to the shadow of one memory cell, creating
// the (uninitialized) shadow array on first touch.
func (sm *shadowMachine) cellShadow(inst *Instance, off int) *sbit {
	cells := sm.shadowCells(inst)
	if off < 0 || off >= len(cells) {
		return nil
	}
	return &cells[off]
}

// shadowCells returns inst's cell shadows, creating them (uninitialized)
// on first touch.
func (sm *shadowMachine) shadowCells(inst *Instance) []sbit {
	if inst.shadow == nil {
		inst.shadow = make([]sbit, len(inst.Cells))
	}
	return inst.shadow
}

// passArgs relays an internal call's argument shadows into the callee's
// parameter shadows (σ_g := σ(y_i)), reading them in the caller before
// the callee starts.
func (sm *shadowMachine) passArgs(caller *frame, in *ir.Call, callee *frame) {
	sm.pendingRet = sT
	fp := callee.fp
	if fp == nil {
		return
	}
	for i, a := range in.Args {
		if i < len(fp.ParamRecv) && fp.ParamRecv[i] {
			callee.sregs[callee.fn.Params[i].ID] = sm.shadowOf(caller, a)
			sm.m.res.ShadowProps++ // σ_g := σ(y_i)
		}
	}
}

// enter applies the parameter rules ([⊤-Para]/[⊥-Para]) to a new
// activation whose relayed argument shadows passArgs has written.
func (sm *shadowMachine) enter(fr *frame) {
	fp := fr.fp
	if fp == nil {
		return
	}
	for i, prm := range fr.fn.Params {
		switch {
		case i < len(fp.ParamSetT) && fp.ParamSetT[i]:
			fr.sregs[prm.ID] = sT
		case i < len(fp.ParamRecv) && fp.ParamRecv[i]:
			// A relayed shadow is T or F. Only the run's entry function,
			// which has no caller to relay from, finds it unset, and its
			// arguments are defined.
			if fr.sregs[prm.ID] == sUninit {
				fr.sregs[prm.ID] = sT
			}
			sm.m.res.ShadowProps++ // σ(a) := σ_g
		}
	}
}

// externalCallResult marks the result of a call that resolved to a
// bodiless (external) function as defined. Without this, an indirect call
// whose runtime target is external would leave the result's shadow
// uninitialized.
func (sm *shadowMachine) externalCallResult(fr *frame, in *ir.Call) {
	if fr.fp != nil && fr.fp.Shadowed(in.Dst) {
		fr.sregs[in.Dst.ID] = sT
	}
}

// afterCallReturn applies the relayed return shadow to the call result.
func (sm *shadowMachine) afterCallReturn(fr *frame, in *ir.Call) {
	if in.Dst == nil {
		return
	}
	if fr.fp != nil && fr.fp.Shadowed(in.Dst) {
		fr.sregs[in.Dst.ID] = sm.pendingRet
	}
}

// phiShadow reads the shadow a phi would receive from its chosen incoming
// value, or (sT, false) when the phi is uninstrumented. It must be called
// for every phi of a block BEFORE any of their shadows are written: phis
// assign simultaneously, and a swap pattern (x, y = y, x) would otherwise
// read an already-updated shadow.
func (sm *shadowMachine) phiShadow(fr *frame, phi *ir.Phi, predIdx int) (sbit, bool) {
	if fr.fp == nil || phi.Label() >= len(fr.items) {
		return sT, false
	}
	for _, it := range fr.items[phi.Label()] {
		if it.Kind == instrument.PropCompute && it.Dst == phi.Dst {
			return sm.shadowOf(fr, phi.Vals[predIdx]), true
		}
	}
	return sT, false
}

// setPhiShadow applies a shadow captured by phiShadow.
func (sm *shadowMachine) setPhiShadow(fr *frame, phi *ir.Phi, s sbit) {
	if fr.fp == nil || !fr.fp.Shadowed(phi.Dst) {
		return
	}
	fr.sregs[phi.Dst.ID] = s
	sm.m.res.ShadowProps++
}

// after executes the instrumentation items attached to in.
func (sm *shadowMachine) after(fr *frame, in ir.Instr) {
	if fr.fp == nil {
		return
	}
	if _, isPhi := in.(*ir.Phi); isPhi {
		return // handled by afterPhi
	}
	if l := in.Label(); l < len(fr.items) {
		for _, it := range fr.items[l] {
			sm.execItem(fr, in, it)
		}
	}
	// Return-shadow relay ([⊥-Ret]).
	if ret, ok := in.(*ir.Ret); ok {
		if fr.fp.RetSend && ret.Val != nil {
			sm.pendingRet = sm.shadowOf(fr, ret.Val)
			sm.m.res.ShadowProps++
		} else {
			sm.pendingRet = sT
		}
	}
}

func (sm *shadowMachine) execItem(fr *frame, in ir.Instr, it instrument.Item) {
	switch it.Kind {
	case instrument.PropSetT:
		fr.sregs[it.Dst.ID] = sT
		sm.m.res.ShadowProps++
	case instrument.PropSetF:
		fr.sregs[it.Dst.ID] = sF
		sm.m.res.ShadowProps++
	case instrument.PropCompute:
		s := sT
		for _, src := range it.Srcs {
			if sm.shadowOf(fr, src) == sF {
				s = sF
			}
		}
		fr.sregs[it.Dst.ID] = s
		sm.m.res.ShadowProps++
	case instrument.PropLoad:
		ld := in.(*ir.Load)
		addr, _ := sm.m.eval(fr, ld.Addr)
		s := sT
		if addr.Kind == KindAddr && !addr.isNull() {
			if cs := sm.cellShadow(addr.Inst, int(addr.Int)); cs != nil {
				s = *cs
				if s == sUninit {
					sm.violation("load of uninitialized cell shadow at %s (l%d in %s)",
						addr, in.Label(), fr.fn.Name)
					s = sT
				}
			}
		}
		fr.sregs[it.Dst.ID] = s
		sm.m.res.ShadowProps++
	case instrument.PropStore:
		st := in.(*ir.Store)
		addr, _ := sm.m.eval(fr, st.Addr)
		if addr.Kind == KindAddr && !addr.isNull() {
			if cs := sm.cellShadow(addr.Inst, int(addr.Int)); cs != nil {
				*cs = sm.shadowOf(fr, it.Val)
			}
		}
		sm.m.res.ShadowProps++
	case instrument.MemSetT, instrument.MemSetF:
		s := sT
		if it.Kind == instrument.MemSetF {
			s = sF
		}
		switch in := in.(type) {
		case *ir.Alloc:
			// Initialize the whole freshly allocated instance.
			inst, _ := sm.m.eval(fr, in.Dst)
			if inst.Kind == KindAddr && !inst.isNull() {
				target := inst.Inst
				cells := make([]sbit, len(target.Cells))
				for i := range cells {
					cells[i] = s
				}
				target.shadow = cells
			}
		case *ir.Store:
			// Strong update of the stored-to cell ([⊤-Store_SU]).
			addr, _ := sm.m.eval(fr, in.Addr)
			if addr.Kind == KindAddr && !addr.isNull() {
				if cs := sm.cellShadow(addr.Inst, int(addr.Int)); cs != nil {
					*cs = s
				}
			}
		}
		sm.m.res.ShadowProps++
	case instrument.MemFill:
		// σ(*to+i) := σ(v) over the requested range. The instruction has
		// already executed without trapping, so the range is in bounds;
		// shadow work is charged by the range, never the object size.
		ms := in.(*ir.MemSet)
		to, _ := sm.m.eval(fr, ms.To)
		ln, _ := sm.m.eval(fr, ms.Len)
		if to.Kind == KindAddr && !to.isNull() {
			s := sm.shadowOf(fr, it.Val)
			for i := 0; i < int(ln.Int); i++ {
				if cs := sm.cellShadow(to.Inst, int(to.Int)+i); cs != nil {
					*cs = s
				}
			}
		}
		sm.m.res.ShadowProps++
	case instrument.MemShadowCopy:
		// σ(*to+i) := σ(*from+i) over the requested range. The data copy
		// has already run without trapping, so both ranges lie inside
		// their instances; copy has memmove semantics, so overlapping
		// ranges get the pre-instruction shadows, mirroring the data copy.
		mc := in.(*ir.MemCopy)
		to, _ := sm.m.eval(fr, mc.To)
		from, _ := sm.m.eval(fr, mc.From)
		ln, _ := sm.m.eval(fr, mc.Len)
		n := ln.Int
		if n > 0 && to.Kind == KindAddr && !to.isNull() &&
			from.Kind == KindAddr && !from.isNull() {
			src := sm.shadowCells(from.Inst)[from.Int : from.Int+n]
			for _, s := range src {
				if s == sUninit {
					sm.violation("copy of uninitialized cell shadow at %s (l%d in %s)",
						from, in.Label(), fr.fn.Name)
				}
			}
			dst := sm.shadowCells(to.Inst)[to.Int : to.Int+n]
			copy(dst, src)
			// Every cell of dst now holds a source shadow, so an
			// uninitialized one came from the source: it lands as T.
			for i, s := range dst {
				if s == sUninit {
					dst[i] = sT
				}
			}
		}
		sm.m.res.ShadowProps++
	case instrument.CheckVal:
		for _, v := range it.Srcs {
			sm.m.res.ShadowChecks++
			if sm.shadowOf(fr, v) == sF {
				sm.shadowWarn(fr, in)
			}
		}
	}
}

func (sm *shadowMachine) shadowWarn(fr *frame, in ir.Instr) {
	site := Site{fr.fn.Name, in.Label()}
	if sm.warned[site] {
		return
	}
	sm.warned[site] = true
	sm.m.res.ShadowWarnings = append(sm.m.res.ShadowWarnings,
		Warning{Fn: fr.fn.Name, Label: in.Label(), Pos: in.Pos(), What: "shadow check failed"})
}
