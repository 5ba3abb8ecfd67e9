// Package pointer implements an inclusion-based (Andersen-style),
// offset-based field-sensitive pointer analysis with on-the-fly call-graph
// construction, the prerequisite of the paper's memory SSA and value-flow
// graph (§3.1, §5.4).
//
// Abstract locations are field variables (object, field-index) plus
// function addresses. Arrays and dynamically sized heap objects are
// collapsed to a single field (the paper treats arrays as a whole);
// objects whose address flows into pointer arithmetic are collapsed
// on-line during solving, which keeps the treatment sound.
//
// The paper's 1-callsite heap cloning for allocation wrappers is realized
// upstream by inlining allocation wrappers (package passes), which gives
// each call site its own allocation site and hence its own abstract
// object.
package pointer

import (
	"fmt"
	"sort"

	"github.com/valueflow/usher/internal/ir"
)

// Loc is an abstract memory location: a field of an object, or a function
// address (Fn non-nil).
type Loc struct {
	Obj   *ir.Object
	Field int
	Fn    *ir.Function
}

func (l Loc) String() string {
	if l.Fn != nil {
		return "@" + l.Fn.Name
	}
	if l.Field == 0 {
		return l.Obj.String()
	}
	return fmt.Sprintf("%s.f%d", l.Obj, l.Field)
}

// ptsSolver is the query surface a solver exposes to Result: the
// bit-vector solver (solver.go) and, in tests, the map-based legacy
// reference it is diffed against (legacy_test.go). Both are strictly
// read-only after freezing.
type ptsSolver interface {
	operandNode(v ir.Value, create bool) (int, bool)
	locsOf(n int) []Loc
}

// SolverStats summarizes the solved constraint system. All fields are
// deterministic functions of the analyzed program (the solver's worklist
// order is deterministic), so the pipeline reports them under the
// bit-identical-for-any-parallelism contract.
type SolverStats struct {
	// Nodes counts constraint nodes, Locations abstract locations.
	Nodes, Locations int
	// Constraints counts complex constraints (loads, stores, field/index
	// offsets, indirect call sites) attached to union-find roots; CopyEdges
	// counts copy-edge insertions over the whole solve.
	Constraints, CopyEdges int
	// Visits counts worklist visits that processed a non-empty delta;
	// Waves counts worklist rounds (see solver.solve).
	Visits int
	Waves  int
	// SCCsCollapsed counts multi-node copy cycles folded by online cycle
	// elimination. The test-only legacy reference reports only Nodes (it
	// predates these counters).
	SCCsCollapsed int
}

// Result is the outcome of the analysis.
type Result struct {
	solver ptsSolver
	// Stats describes the constraint system the solver built and solved.
	Stats SolverStats
	// callees maps each call instruction to its possible targets (direct
	// calls have exactly one).
	callees map[*ir.Call][]*ir.Function
	// callers maps each function to the calls that may invoke it.
	callers map[*ir.Function][]*ir.Call
	// recursive marks functions on call-graph cycles (including
	// self-recursion).
	recursive map[*ir.Function]bool
}

// PointsTo returns the abstract locations v may point to, sorted
// deterministically. Constants and non-pointer values yield nil.
func (r *Result) PointsTo(v ir.Value) []Loc {
	n, ok := r.solver.operandNode(v, false)
	if !ok {
		switch v := v.(type) {
		case *ir.GlobalAddr:
			return []Loc{{Obj: v.Obj}}
		case *ir.FuncValue:
			return []Loc{{Fn: v.Fn}}
		}
		return nil
	}
	return r.solver.locsOf(n)
}

// UniqueTarget returns the single abstract object field v can point to,
// if its points-to set is a singleton non-function location.
func (r *Result) UniqueTarget(v ir.Value) (Loc, bool) {
	locs := r.PointsTo(v)
	if len(locs) == 1 && locs[0].Fn == nil {
		return locs[0], true
	}
	return Loc{}, false
}

// Callees returns the functions a call may invoke (empty for builtins and
// externals).
func (r *Result) Callees(c *ir.Call) []*ir.Function { return r.callees[c] }

// Callers returns the call instructions that may invoke fn.
func (r *Result) Callers(fn *ir.Function) []*ir.Call { return r.callers[fn] }

// Recursive reports whether fn participates in a call-graph cycle.
func (r *Result) Recursive(fn *ir.Function) bool { return r.recursive[fn] }

// CanonField maps a field index through any collapsing the solver
// performed on obj.
func (r *Result) CanonField(obj *ir.Object, field int) int {
	if obj.Collapsed() {
		return 0
	}
	return obj.FieldIndex(field)
}

// Analyze runs the analysis over the whole program: constraint
// generation, the worklist solve to a least fixpoint (solver.go), and the
// read-only freeze that lets the Result be shared across goroutines.
func Analyze(prog *ir.Program) *Result {
	s := newSolver(prog)
	s.generate()
	s.solve()
	s.freeze()
	res := finishResult(prog, s, s.callees)
	res.Stats = s.stats()
	return res
}

// finishResult performs the implementation-independent post-processing:
// canonical callee ordering, the callers index, and recursion detection.
// Canonicalizing callees here makes the solver and the test-only legacy
// reference byte-identical downstream even though their worklist dynamics resolve
// indirect calls in different orders.
func finishResult(prog *ir.Program, impl ptsSolver, callees map[*ir.Call][]*ir.Function) *Result {
	res := &Result{
		solver:    impl,
		callees:   callees,
		callers:   make(map[*ir.Function][]*ir.Call),
		recursive: make(map[*ir.Function]bool),
	}
	for c, fns := range callees {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
		for _, fn := range fns {
			res.callers[fn] = append(res.callers[fn], c)
		}
	}
	for fn := range res.callers {
		sort.Slice(res.callers[fn], func(i, j int) bool {
			a, b := res.callers[fn][i], res.callers[fn][j]
			if a.Parent().Fn != b.Parent().Fn {
				return a.Parent().Fn.Name < b.Parent().Fn.Name
			}
			return a.Label() < b.Label()
		})
	}
	res.findRecursion(prog)
	return res
}

// findRecursion marks functions in call-graph SCCs of size > 1 or with
// self-loops, using Tarjan's algorithm over dense function indices (the
// state is flat slices, not per-function maps — this runs on every
// analysis).
func (r *Result) findRecursion(prog *ir.Program) {
	nf := len(prog.Funcs)
	fnIdx := make(map[*ir.Function]int, nf)
	for i, fn := range prog.Funcs {
		fnIdx[fn] = i
	}
	// Per-function deduped callee lists (epoch-marked dedup, no maps).
	succs := make([][]int32, nf)
	mark := make([]int32, nf)
	for i := range mark {
		mark[i] = -1
	}
	for fi, fn := range prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				c, ok := in.(*ir.Call)
				if !ok {
					continue
				}
				for _, callee := range r.callees[c] {
					if callee == fn {
						r.recursive[fn] = true // direct self-loop
					}
					if ci := fnIdx[callee]; mark[ci] != int32(fi) {
						mark[ci] = int32(fi)
						succs[fi] = append(succs[fi], int32(ci))
					}
				}
			}
		}
	}

	index := make([]int32, nf) // 0 = unvisited, else visit order + 1
	low := make([]int32, nf)
	onStack := make([]bool, nf)
	var stack []int32
	next := int32(0)

	type frame struct {
		v  int32
		si int
	}
	var dfs []frame
	for root := 0; root < nf; root++ {
		if !prog.Funcs[root].HasBody || index[root] != 0 {
			continue
		}
		dfs = append(dfs[:0], frame{int32(root), 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := int(f.v)
			if f.si == 0 {
				next++
				index[v] = next
				low[v] = next
				stack = append(stack, int32(v))
				onStack[v] = true
			}
			advanced := false
			for f.si < len(succs[v]) {
				w := int(succs[v][f.si])
				f.si++
				if index[w] == 0 {
					dfs = append(dfs, frame{int32(w), 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				if p := int(dfs[len(dfs)-1].v); low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			popTo := len(stack)
			for popTo > 0 {
				popTo--
				onStack[stack[popTo]] = false
				if int(stack[popTo]) == v {
					break
				}
			}
			if scc := stack[popTo:]; len(scc) > 1 {
				for _, w := range scc {
					r.recursive[prog.Funcs[w]] = true
				}
			}
			stack = stack[:popTo]
		}
	}
}
