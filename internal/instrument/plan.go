// Package instrument computes instrumentation plans: which shadow
// propagations and definedness checks a program must execute at run time.
//
// Two producers exist:
//
//   - Full (this file) shadows every value and checks every critical
//     operation, modelling MSan-style full instrumentation (§2.2).
//   - Emit (guided.go) applies the paper's Figure 7 rules over a
//     value-flow graph and its definedness resolution, emitting shadow
//     work only where an undefined value may reach a critical operation.
//
// A Plan is consumed by the interpreter's shadow machine (package
// interp), which executes the planned items alongside the program and
// counts them, and by the static counters behind Figure 11.
package instrument

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/valueflow/usher/internal/ir"
)

// ItemKind is the operation an instrumentation item performs.
type ItemKind int

// Item kinds, corresponding to the shadow statements of Figure 7.
const (
	// PropCompute: σ(Dst) := ∧ σ(src) over Srcs.
	PropCompute ItemKind = iota
	// PropSetT: σ(Dst) := T (strong update of a register shadow).
	PropSetT
	// PropSetF: σ(Dst) := F.
	PropSetF
	// PropLoad: σ(Dst) := σ(*addr) for the instruction's load address.
	PropLoad
	// PropStore: σ(*addr) := σ(Val) for the instruction's store address.
	PropStore
	// MemSetT: σ(*x) := T over the allocated object (alloc_T) or the
	// stored-to cell (strong update at a store).
	MemSetT
	// MemSetF: σ(*x) := F over the allocated object (alloc_F).
	MemSetF
	// CheckVal: E(l) |= (σ(v) = F) for each value in Srcs.
	CheckVal
	// MemFill: σ(*to+i) := σ(Val) for i in [0, len) at a MemSet
	// intrinsic. The range is the runtime-evaluated length, so shadow
	// work is charged by the requested range, never the (possibly
	// collapsed) object size.
	MemFill
	// MemShadowCopy: σ(*to+i) := σ(*from+i) for i in [0, len) at a
	// MemCopy intrinsic (memcpy/memmove both lower to it).
	MemShadowCopy
)

func (k ItemKind) String() string {
	switch k {
	case PropCompute:
		return "prop-compute"
	case PropSetT:
		return "prop-setT"
	case PropSetF:
		return "prop-setF"
	case PropLoad:
		return "prop-load"
	case PropStore:
		return "prop-store"
	case MemSetT:
		return "mem-setT"
	case MemSetF:
		return "mem-setF"
	case MemFill:
		return "mem-fill"
	case MemShadowCopy:
		return "mem-shadow-copy"
	default:
		return "check"
	}
}

// Item is one piece of instrumentation attached to an instruction.
type Item struct {
	Kind ItemKind
	Dst  *ir.Register // for PropCompute/PropSetT/PropSetF/PropLoad
	Val  ir.Value     // for PropStore: the stored value
	Srcs []ir.Value   // for PropCompute (conjunction) and CheckVal
}

// shadowReads returns the number of shadow-variable reads the item
// performs, the unit of Figure 11's propagation counts.
func (it Item) shadowReads(fp *FnPlan) int {
	switch it.Kind {
	case PropCompute:
		n := 0
		for _, s := range it.Srcs {
			if r, ok := s.(*ir.Register); ok && fp.Shadowed(r) {
				n++
			}
		}
		return n
	case PropLoad:
		return 1
	case PropStore, MemFill:
		if r, ok := it.Val.(*ir.Register); ok && fp.Shadowed(r) {
			return 1
		}
		return 0
	case MemShadowCopy:
		return 1
	}
	return 0
}

// FnPlan is the instrumentation of one function.
type FnPlan struct {
	Fn *ir.Function
	// Items maps instruction labels to the shadow work at that statement.
	Items map[int][]Item
	// shadowRegs[r.ID] marks registers that carry a shadow variable.
	// Unshadowed registers are statically known defined (σ = T).
	shadowRegs []bool
	// ParamRecv[i] marks parameters whose shadow is received from the
	// caller ([⊥-Para]); ParamSetT[i] marks parameters strongly updated to
	// T on entry ([⊤-Para]).
	ParamRecv []bool
	ParamSetT []bool
	// RetSend marks functions that relay the shadow of their return value
	// to call sites ([⊥-Ret]).
	RetSend bool

	// table holds Items indexed by label, built once by ItemTable.
	tableOnce sync.Once
	table     [][]Item
}

// ItemTable returns Items as a slice indexed by instruction label, nil
// where a label has no items, so that executing a statement needs no map
// lookup. It is built on first use and shared by every later caller,
// concurrent ones included; Items must not change after that.
func (fp *FnPlan) ItemTable() [][]Item {
	fp.tableOnce.Do(func() {
		max := -1
		for _, b := range fp.Fn.Blocks {
			for _, in := range b.Instrs {
				if in.Label() > max {
					max = in.Label()
				}
			}
		}
		fp.table = make([][]Item, max+1)
		for label, items := range fp.Items {
			if label >= 0 && label <= max {
				fp.table[label] = items
			}
		}
	})
	return fp.table
}

// Shadowed reports whether register r carries a shadow variable.
func (fp *FnPlan) Shadowed(r *ir.Register) bool {
	return r.ID < len(fp.shadowRegs) && fp.shadowRegs[r.ID]
}

func (fp *FnPlan) setShadowed(r *ir.Register) {
	for len(fp.shadowRegs) <= r.ID {
		fp.shadowRegs = append(fp.shadowRegs, false)
	}
	fp.shadowRegs[r.ID] = true
}

// shadowedRegIDs returns the ids of every register carrying a shadow
// variable, in ascending order, as Fingerprint renders them.
func (fp *FnPlan) shadowedRegIDs() []int {
	var ids []int
	for id, on := range fp.shadowRegs {
		if on {
			ids = append(ids, id)
		}
	}
	return ids
}

func (fp *FnPlan) add(label int, it Item) {
	fp.Items[label] = append(fp.Items[label], it)
}

// Plan is a whole-program instrumentation plan.
type Plan struct {
	// Name identifies the configuration that produced the plan.
	Name string
	Fns  map[*ir.Function]*FnPlan
}

// FnPlanOf returns the plan of fn (nil if the function is uninstrumented).
func (p *Plan) FnPlanOf(fn *ir.Function) *FnPlan { return p.Fns[fn] }

// Stats are the static instrumentation counts reported in Figure 11.
type Stats struct {
	// Props is the static number of shadow propagations (reads from
	// shadow variables).
	Props int
	// Checks is the static number of runtime checks at critical
	// operations.
	Checks int
	// Items is the total number of instrumentation items.
	Items int
}

// StaticStats computes the plan's static propagation/check counts.
// Parameter and return relays (the paper's σ_g pairs) are counted once
// per receiving parameter / relaying function rather than once per call
// site; the accounting is identical across configurations, so the
// normalized comparisons of Figure 11 are unaffected.
func (p *Plan) StaticStats() Stats {
	var st Stats
	for _, fp := range p.Fns {
		for _, items := range fp.Items {
			for _, it := range items {
				st.Items++
				if it.Kind == CheckVal {
					st.Checks += len(it.Srcs)
				} else {
					st.Props += it.shadowReads(fp)
				}
			}
		}
		for _, recv := range fp.ParamRecv {
			if recv {
				st.Props++ // σ_g := σ(actual); σ(formal) := σ_g
				st.Items++
			}
		}
		if fp.RetSend {
			st.Props++
			st.Items++
		}
	}
	return st
}

// Fingerprint renders the plan canonically: functions sorted by name,
// labels sorted numerically, items in emission order. Two plans with
// equal fingerprints schedule exactly the same shadow work, so the
// fingerprint is the equality notion used by the session-vs-standalone
// and parallel-vs-serial regression tests.
func (p *Plan) Fingerprint() string {
	fns := make([]*FnPlan, 0, len(p.Fns))
	for _, fp := range p.Fns {
		fns = append(fns, fp)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Fn.Name < fns[j].Fn.Name })

	var sb strings.Builder
	for _, fp := range fns {
		fmt.Fprintf(&sb, "func %s recv=%v setT=%v retSend=%v\n",
			fp.Fn.Name, fp.ParamRecv, fp.ParamSetT, fp.RetSend)
		fmt.Fprintf(&sb, "  shadowed=%v\n", fp.shadowedRegIDs())
		labels := make([]int, 0, len(fp.Items))
		for l := range fp.Items {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		for _, l := range labels {
			for _, it := range fp.Items[l] {
				fmt.Fprintf(&sb, "  @%d %s dst=%v val=%v srcs=%v\n", l, it.Kind, it.Dst, it.Val, it.Srcs)
			}
		}
	}
	return sb.String()
}

// Full builds the MSan-model plan: every statement is shadowed and every
// critical operation checked (§2.2 of the paper).
func Full(prog *ir.Program) *Plan {
	p := &Plan{Name: "MSan", Fns: make(map[*ir.Function]*FnPlan)}
	for _, fn := range prog.Funcs {
		if !fn.HasBody {
			continue
		}
		fp := &FnPlan{Fn: fn, Items: make(map[int][]Item)}
		p.Fns[fn] = fp
		for _, prm := range fn.Params {
			fp.setShadowed(prm)
		}
		fp.ParamRecv = make([]bool, len(fn.Params))
		for i := range fp.ParamRecv {
			fp.ParamRecv[i] = true
		}
		fp.RetSend = true
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				fullInstrument(fp, in)
			}
		}
	}
	return p
}

func fullInstrument(fp *FnPlan, in ir.Instr) {
	l := in.Label()
	// Checks at critical operations.
	if vals, critical := ir.IsCritical(in); critical {
		fp.add(l, Item{Kind: CheckVal, Srcs: vals})
	}
	switch in := in.(type) {
	case *ir.Alloc:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropSetT, Dst: in.Dst})
		if in.Obj.ZeroInit {
			fp.add(l, Item{Kind: MemSetT})
		} else {
			fp.add(l, Item{Kind: MemSetF})
		}
	case *ir.Copy:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropCompute, Dst: in.Dst, Srcs: []ir.Value{in.Src}})
	case *ir.BinOp:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropCompute, Dst: in.Dst, Srcs: []ir.Value{in.X, in.Y}})
	case *ir.FieldAddr:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropCompute, Dst: in.Dst, Srcs: []ir.Value{in.Base}})
	case *ir.IndexAddr:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropCompute, Dst: in.Dst, Srcs: []ir.Value{in.Base, in.Idx}})
	case *ir.Load:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropLoad, Dst: in.Dst})
	case *ir.Store:
		fp.add(l, Item{Kind: PropStore, Val: in.Val})
	case *ir.MemSet:
		fp.add(l, Item{Kind: MemFill, Val: in.Val})
	case *ir.MemCopy:
		fp.add(l, Item{Kind: MemShadowCopy})
	case *ir.Phi:
		fp.setShadowed(in.Dst)
		fp.add(l, Item{Kind: PropCompute, Dst: in.Dst, Srcs: in.Vals})
	case *ir.Call:
		if in.Dst != nil {
			fp.setShadowed(in.Dst)
			if in.Builtin != ir.NotBuiltin || anyExternal(in) {
				// input() and external calls return defined values.
				fp.add(l, Item{Kind: PropSetT, Dst: in.Dst})
			}
		}
	}
}

// anyExternal reports whether the (direct) callee lacks a body.
func anyExternal(c *ir.Call) bool {
	if d := c.Direct(); d != nil {
		return !d.HasBody
	}
	return false
}
