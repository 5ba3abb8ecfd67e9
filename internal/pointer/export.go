package pointer

import (
	"errors"
	"fmt"

	"github.com/valueflow/usher/internal/ir"
)

// This file is the solved-state serialization boundary used by snapshot
// warm starts (internal/snapshot): Export flattens a solved Result into
// plain index-based tables, Import rebuilds an equivalent Result over a
// freshly compiled program. The exported view is exactly the public
// query surface — per-register points-to sets, the call graph, and the
// object collapses the solver performed — because that is all any
// downstream consumer (memory SSA, VFG, instrumentation) ever reads; the
// solver's constraint graph itself never needs to survive the trip.
//
// Determinism contract: Export visits registers and call sites in
// deterministic program order and emits locations through the solver's
// canonical sorted locsOf, so exporting the same Result twice yields
// identical tables, and an imported Result answers every query
// identically to the Result it was exported from (pinned by
// TestExportImportRoundTrip).

// Export is a Result flattened to dense indices: functions by position
// in prog.Funcs, registers by their ids, call sites by ordinal in a
// deterministic walk (body functions in program order, blocks and
// instructions in order, counting only *ir.Call), locations by position
// in the interned Locs table.
type Export struct {
	// Collapsed lists the IDs of multi-cell objects the solver made
	// field-insensitive. Import must re-apply these before anything
	// consults the program's collapse state: solving mutates the IR, and
	// a warm start has to leave the program exactly as a cold solve
	// would.
	Collapsed []int
	// Locs is the interned abstract-location table.
	Locs []Loc
	// Regs holds one entry per register with a non-empty points-to set.
	Regs []RegPts
	// Calls holds one entry per call site with at least one callee.
	Calls []CallEdges
	// Stats is carried verbatim so a warm start reports the solve it
	// reused.
	Stats SolverStats
}

// RegPts is one register's points-to set: locations as indices into
// Export.Locs, in the canonical sorted order locsOf produces.
type RegPts struct {
	Fn   int // index into prog.Funcs
	Reg  int // register id within the function
	Locs []int32
}

// CallEdges is one call site's resolved callees (function indices),
// keyed by the site's ordinal in the deterministic program walk.
type CallEdges struct {
	Site    int
	Callees []int32
}

// Export flattens the Result for serialization. It requires the
// bit-vector solver's state; results produced by the tests' legacy
// reference or by Import itself are not exportable.
func (r *Result) Export(prog *ir.Program) (*Export, error) {
	s, ok := r.solver.(*solver)
	if !ok {
		return nil, errors.New("pointer: Export requires a bit-vector solver Result")
	}
	ex := &Export{Stats: r.Stats}
	for _, o := range prog.Objects() {
		if o.Size > 1 && o.Collapsed() {
			ex.Collapsed = append(ex.Collapsed, o.ID)
		}
	}
	locIdx := make(map[Loc]int32)
	intern := func(l Loc) int32 {
		if i, ok := locIdx[l]; ok {
			return i
		}
		i := int32(len(ex.Locs))
		ex.Locs = append(ex.Locs, l)
		locIdx[l] = i
		return i
	}
	for fi := range prog.Funcs {
		for rid, nid := range s.regNodes[fi] {
			if nid < 0 {
				continue
			}
			locs := s.locsOf(int(nid))
			if len(locs) == 0 {
				continue
			}
			idxs := make([]int32, len(locs))
			for i, l := range locs {
				idxs[i] = intern(l)
			}
			ex.Regs = append(ex.Regs, RegPts{Fn: fi, Reg: rid, Locs: idxs})
		}
	}
	walkCalls(prog, func(ord int, c *ir.Call) {
		fns := r.callees[c]
		if len(fns) == 0 {
			return
		}
		ce := CallEdges{Site: ord, Callees: make([]int32, len(fns))}
		for i, f := range fns {
			ce.Callees[i] = int32(s.fnIdx[f])
		}
		ex.Calls = append(ex.Calls, ce)
	})
	return ex, nil
}

// Import rebuilds a Result over prog from exported tables. prog must be
// the same program the export came from (same compile of the same
// source); the snapshot layer guards this with a content fingerprint,
// and Import additionally validates every index so a stale or damaged
// export surfaces as an error — never a panic — letting callers fall
// back to a cold solve.
func Import(prog *ir.Program, ex *Export) (*Result, error) {
	objByID := make(map[int]*ir.Object)
	for _, o := range prog.Objects() {
		objByID[o.ID] = o
	}
	for _, id := range ex.Collapsed {
		o := objByID[id]
		if o == nil {
			return nil, fmt.Errorf("pointer: import: collapsed object #%d not in program", id)
		}
		o.Collapse()
	}
	ls := &loadedSolver{
		fnIdx:   make(map[*ir.Function]int, len(prog.Funcs)),
		regNode: make([][]int32, len(prog.Funcs)),
	}
	for i, fn := range prog.Funcs {
		ls.fnIdx[fn] = i
	}
	for _, rp := range ex.Regs {
		if rp.Fn < 0 || rp.Fn >= len(prog.Funcs) || rp.Reg < 0 {
			return nil, fmt.Errorf("pointer: import: register (%d, %d) out of range", rp.Fn, rp.Reg)
		}
		locs := make([]Loc, len(rp.Locs))
		for i, li := range rp.Locs {
			if li < 0 || int(li) >= len(ex.Locs) {
				return nil, fmt.Errorf("pointer: import: location index %d out of range", li)
			}
			locs[i] = ex.Locs[li]
		}
		regs := ls.regNode[rp.Fn]
		if rp.Reg >= len(regs) {
			regs = grow32(regs, rp.Reg)
			ls.regNode[rp.Fn] = regs
		}
		regs[rp.Reg] = int32(len(ls.locLists))
		ls.locLists = append(ls.locLists, locs)
	}
	sites := callSites(prog)
	callees := make(map[*ir.Call][]*ir.Function, len(ex.Calls))
	for _, ce := range ex.Calls {
		if ce.Site < 0 || ce.Site >= len(sites) {
			return nil, fmt.Errorf("pointer: import: call site %d out of range", ce.Site)
		}
		fns := make([]*ir.Function, len(ce.Callees))
		for i, fi := range ce.Callees {
			if fi < 0 || int(fi) >= len(prog.Funcs) {
				return nil, fmt.Errorf("pointer: import: callee index %d out of range", fi)
			}
			fns[i] = prog.Funcs[fi]
		}
		callees[sites[ce.Site]] = fns
	}
	res := finishResult(prog, ls, callees)
	res.Stats = ex.Stats
	return res, nil
}

// walkCalls visits every call instruction of prog in the deterministic
// export order, handing each its site ordinal.
func walkCalls(prog *ir.Program, f func(ord int, c *ir.Call)) {
	ord := 0
	for _, fn := range prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok {
					f(ord, c)
					ord++
				}
			}
		}
	}
}

// callSites returns prog's call instructions indexed by export ordinal.
func callSites(prog *ir.Program) []*ir.Call {
	var sites []*ir.Call
	walkCalls(prog, func(_ int, c *ir.Call) { sites = append(sites, c) })
	return sites
}

// loadedSolver is the ptsSolver of an imported Result: a read-only
// table of per-register location lists. "Node ids" are indices into
// locLists; values other than registers report no node, which routes
// Result.PointsTo to its exact singleton fallbacks for global addresses
// and function values — the same answers the live solver computes for
// them.
type loadedSolver struct {
	fnIdx    map[*ir.Function]int
	regNode  [][]int32 // [fnIdx][regID] → locLists index, -1 = none
	locLists [][]Loc
}

func (ls *loadedSolver) operandNode(v ir.Value, create bool) (int, bool) {
	r, ok := v.(*ir.Register)
	if !ok {
		return 0, false
	}
	fi, ok := ls.fnIdx[r.Fn]
	if !ok {
		return 0, false
	}
	regs := ls.regNode[fi]
	if r.ID >= len(regs) || regs[r.ID] < 0 {
		return 0, false
	}
	return int(regs[r.ID]), true
}

func (ls *loadedSolver) locsOf(n int) []Loc {
	if n < 0 || n >= len(ls.locLists) {
		return nil
	}
	return ls.locLists[n]
}
