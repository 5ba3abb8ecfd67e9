// Package memssa constructs memory SSA for address-taken variables,
// following §3.1 of the paper (the mu/chi form of Chow et al.).
//
// The unit of versioning is the field variable (object, field): the
// paper's address-taken variable ρ. Each load is annotated with mu(ρ)
// uses, each store and allocation site with ρ := χ(ρ) defs, and each call
// with mus/chis for the callee's virtual input and output parameters.
// Per-function SSA renaming then versions every field variable, with phi
// defs at control-flow joins.
//
// Virtual parameters: a function's input variables are everything it may
// reference or modify transitively, excluding its own stack objects when
// it is not recursive; its output variables are everything it may modify
// (allocation counts as modification). Globals flow across function
// boundaries this way, exactly as the paper handles LLVM globals.
package memssa

import (
	"fmt"
	"sort"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
)

// MemVar is an address-taken variable: one field of an abstract object
// (field 0 for collapsed objects).
type MemVar struct {
	Obj   *ir.Object
	Field int
}

func (v MemVar) String() string {
	if v.Field == 0 {
		return v.Obj.String()
	}
	return fmt.Sprintf("%s.f%d", v.Obj, v.Field)
}

// varLess orders MemVars deterministically.
func varLess(a, b MemVar) bool {
	if a.Obj.ID != b.Obj.ID {
		return a.Obj.ID < b.Obj.ID
	}
	return a.Field < b.Field
}

func sortVars(vs []MemVar) {
	sort.Slice(vs, func(i, j int) bool { return varLess(vs[i], vs[j]) })
}

// DefKind classifies a memory SSA definition.
type DefKind int

// Definition kinds.
const (
	// DefEntry is the version live at function entry: the virtual input
	// parameter for input variables.
	DefEntry DefKind = iota
	// DefEntryUndef is the entry version of a variable that cannot exist
	// before the function runs (its own stack objects); it is never
	// observable at a use in well-formed code because stack allocas sit in
	// the entry block.
	DefEntryUndef
	// DefChi is a (potential) definition at a store, allocation or call.
	DefChi
	// DefPhi merges versions at a join.
	DefPhi
)

func (k DefKind) String() string {
	switch k {
	case DefEntry:
		return "entry"
	case DefEntryUndef:
		return "entry-undef"
	case DefChi:
		return "chi"
	default:
		return "phi"
	}
}

// Def is one SSA version of a MemVar within a function.
type Def struct {
	// ID numbers the def densely within its function: its index in
	// FuncInfo.AllDefs. ID and Version are 32-bit so that a Def stays
	// within 96 bytes.
	ID      int32
	Version int32
	Var     MemVar
	Kind    DefKind
	Fn      *ir.Function
	// Instr is the annotated instruction for chi defs.
	Instr ir.Instr
	// Block is the join block for phi defs.
	Block *ir.Block
	// Prev is the incoming version a chi may merge with (the χ's use).
	Prev *Def
	// PhiArgs are a phi's incoming versions, aligned with Block.Preds.
	PhiArgs []*Def
}

func (d *Def) String() string {
	return fmt.Sprintf("%s_%d(%s)", d.Var, d.Version, d.Kind)
}

// Mu is a use of a version at a load or call.
type Mu struct {
	Var MemVar
	Use *Def
}

// FuncInfo is the memory SSA of one function.
type FuncInfo struct {
	Fn *ir.Function
	// InVars/OutVars are the virtual input and output parameters, sorted.
	InVars  []MemVar
	OutVars []MemVar
	// EntryDefs maps each tracked variable to its entry version.
	EntryDefs map[MemVar]*Def
	// Mus maps instruction labels (loads and calls) to their mu uses.
	Mus map[int][]Mu
	// Chis maps instruction labels (stores, allocs, calls) to chi defs.
	Chis map[int][]*Def
	// Phis maps blocks to their memory phis.
	Phis map[*ir.Block][]*Def
	// RetVersions maps each Ret instruction label to the out-flowing
	// version of every output variable.
	RetVersions map[int]map[MemVar]*Def
	// AllDefs lists every Def created for the function.
	AllDefs []*Def
}

// Info is the whole-program memory SSA.
type Info struct {
	Prog    *ir.Program
	Pointer *pointer.Result
	Funcs   map[*ir.Function]*FuncInfo
	// Ref and Mod are the transitive reference/modification sets.
	Ref map[*ir.Function]map[MemVar]bool
	Mod map[*ir.Function]map[MemVar]bool
}

// Build constructs memory SSA for the whole program.
func Build(prog *ir.Program, pa *pointer.Result) *Info {
	info := &Info{
		Prog:    prog,
		Pointer: pa,
		Funcs:   make(map[*ir.Function]*FuncInfo),
		Ref:     make(map[*ir.Function]map[MemVar]bool),
		Mod:     make(map[*ir.Function]map[MemVar]bool),
	}
	info.modRef()
	for _, fn := range prog.Funcs {
		if fn.HasBody {
			info.buildFunc(fn)
		}
	}
	return info
}

// locVars converts points-to locations into MemVars (skipping functions).
func (info *Info) locVars(locs []pointer.Loc) []MemVar {
	var vars []MemVar
	for _, l := range locs {
		if l.Fn != nil {
			continue
		}
		vars = append(vars, MemVar{Obj: l.Obj, Field: info.Pointer.CanonField(l.Obj, l.Field)})
	}
	sortVars(vars)
	// dedup after canonicalization
	out := vars[:0]
	for i, v := range vars {
		if i == 0 || vars[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// rangeVars widens points-to locations to every field variable of the
// pointed-to objects. Memory intrinsics (MemSet/MemCopy) access a
// runtime-sized range, so any field reachable from the base pointer's
// object may be touched regardless of the pointed-at offset; versioning
// the whole object keeps their chis/mus sound for every length.
func (info *Info) rangeVars(locs []pointer.Loc) []MemVar {
	seen := make(map[MemVar]bool)
	var vars []MemVar
	for _, l := range locs {
		if l.Fn != nil {
			continue
		}
		n := l.Obj.NumFields()
		for f := 0; f < n; f++ {
			v := MemVar{Obj: l.Obj, Field: info.Pointer.CanonField(l.Obj, f)}
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	sortVars(vars)
	return vars
}

// allocVars returns every field variable of obj.
func allocVars(obj *ir.Object) []MemVar {
	n := obj.NumFields()
	vars := make([]MemVar, n)
	for i := 0; i < n; i++ {
		vars[i] = MemVar{Obj: obj, Field: i}
	}
	return vars
}

// modRef computes the transitive Ref/Mod sets over the call graph.
func (info *Info) modRef() {
	for _, fn := range info.Prog.Funcs {
		info.Ref[fn] = make(map[MemVar]bool)
		info.Mod[fn] = make(map[MemVar]bool)
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *ir.Load:
					for _, v := range info.locVars(info.Pointer.PointsTo(in.Addr)) {
						info.Ref[fn][v] = true
					}
				case *ir.Store:
					for _, v := range info.locVars(info.Pointer.PointsTo(in.Addr)) {
						info.Mod[fn][v] = true
					}
				case *ir.Alloc:
					for _, v := range allocVars(in.Obj) {
						info.Mod[fn][v] = true
					}
				case *ir.MemSet:
					for _, v := range info.rangeVars(info.Pointer.PointsTo(in.To)) {
						info.Mod[fn][v] = true
					}
				case *ir.MemCopy:
					for _, v := range info.rangeVars(info.Pointer.PointsTo(in.To)) {
						info.Mod[fn][v] = true
					}
					for _, v := range info.rangeVars(info.Pointer.PointsTo(in.From)) {
						info.Ref[fn][v] = true
					}
				}
			}
		}
	}
	// Propagate over the call graph to a fixpoint.
	changed := true
	for changed {
		changed = false
		for _, fn := range info.Prog.Funcs {
			if !fn.HasBody {
				continue
			}
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					c, ok := in.(*ir.Call)
					if !ok {
						continue
					}
					for _, callee := range info.Pointer.Callees(c) {
						for v := range info.Ref[callee] {
							if !info.Ref[fn][v] {
								info.Ref[fn][v] = true
								changed = true
							}
						}
						for v := range info.Mod[callee] {
							if !info.Mod[fn][v] {
								info.Mod[fn][v] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// virtualParams computes the virtual input and output parameters of fn.
func (info *Info) virtualParams(fn *ir.Function) (in, out []MemVar) {
	ownStack := func(v MemVar) bool {
		return v.Obj.Kind == ir.ObjStack && v.Obj.Fn == fn
	}
	recursive := info.Pointer.Recursive(fn)
	seenIn := make(map[MemVar]bool)
	for v := range info.Ref[fn] {
		if ownStack(v) && !recursive {
			continue
		}
		if !seenIn[v] {
			seenIn[v] = true
			in = append(in, v)
		}
	}
	for v := range info.Mod[fn] {
		if ownStack(v) && !recursive {
			continue
		}
		if !seenIn[v] {
			// A chi at a call uses the old version too, so modified
			// variables are also inputs.
			seenIn[v] = true
			in = append(in, v)
		}
		out = append(out, v)
	}
	sortVars(in)
	sortVars(out)
	return in, out
}

// trackedVars returns every variable fn must version: its virtual
// parameters plus its own accessed stack objects.
func (info *Info) trackedVars(fn *ir.Function) []MemVar {
	seen := make(map[MemVar]bool)
	var vars []MemVar
	add := func(v MemVar) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	for v := range info.Ref[fn] {
		add(v)
	}
	for v := range info.Mod[fn] {
		add(v)
	}
	sortVars(vars)
	return vars
}
