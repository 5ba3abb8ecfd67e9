// Package pipeline is the pass manager of the Usher static analysis
// toolchain. It names every stage of the paper's pipeline (§4) — frontend
// lowering, SSA promotion, scalar optimization, pointer analysis, memory
// SSA, value-flow graph construction, Γ resolution, the VFG-based
// optimizations and instrumentation-plan emission — as a registered pass
// with a phase tag and declared inputs/outputs, and provides the keyed,
// concurrency-safe artifact store (store.go) every driver shares:
// usher.Session is a thin facade over a Store, and internal/bench and
// internal/difftest run on the same layer.
//
// Registering passes in one table buys three things:
//
//   - one wiring: the frontend (Compile), the session facade and every
//     driver resolve artifacts through the same dependency edges, instead
//     of each re-wiring the stage order by hand;
//   - per-phase observability: every pass run is timed and counted into a
//     stats.Collector, so performance work can attribute wins to phases
//     (usher-bench -stats, usher-difftest -stats);
//   - a documented contract: the registry is golden-tested against the
//     pass table in docs/ANALYSIS.md, so code and documentation cannot
//     drift apart.
package pipeline

import "fmt"

// Phase tags group passes by pipeline stage. They appear in stats output
// and diagnostics.
type Phase string

// The pipeline phases, in execution order.
const (
	PhaseFrontend   Phase = "frontend"
	PhaseSSA        Phase = "ssa"
	PhaseLink       Phase = "link"
	PhaseScalarOpt  Phase = "scalaropt"
	PhasePointer    Phase = "pointer"
	PhaseMemSSA     Phase = "memssa"
	PhaseVFG        Phase = "vfg"
	PhaseResolve    Phase = "resolve"
	PhaseOpt        Phase = "opt"
	PhaseInstrument Phase = "instrument"
)

// Pass describes one registered stage of the static pipeline: its name,
// phase, declared inputs (the passes whose artifacts it consumes), the
// artifact it produces, and the key dimension its instances vary over.
type Pass struct {
	Name  string
	Phase Phase
	// Needs lists the producing passes of this pass's inputs.
	Needs []string
	// Produces describes the artifact type (documentation; the store's
	// typed accessors are the compile-time contract).
	Produces string
	// Variants names the artifact-key dimension: "" for config-invariant
	// singletons, "module" for per-module frontend runs (single-file
	// compilation uses the empty variant), "graph" for the full/tl VFG
	// flavors, "config" for per-configuration artifacts, "level" for
	// scalar optimization levels.
	Variants string
	// Counters lists the deterministic work counters the pass reports
	// (golden-tested against docs/ANALYSIS.md).
	Counters []string
}

// Registry lists every pass in pipeline order. Ordering is meaningful:
// stats snapshots sort by registry position, and the docs/ANALYSIS.md
// pass table must list the same passes in the same order.
var Registry = []*Pass{
	{Name: "parse", Phase: PhaseFrontend, Variants: "module",
		Produces: "*ast.Program"},
	{Name: "typecheck", Phase: PhaseFrontend, Needs: []string{"parse"}, Variants: "module",
		Produces: "*types.Info"},
	{Name: "lower", Phase: PhaseFrontend, Needs: []string{"typecheck"}, Variants: "module",
		Produces: "*ir.Program",
		Counters: []string{"funcs", "instrs"}},
	{Name: "mem2reg", Phase: PhaseSSA, Needs: []string{"lower"}, Variants: "module",
		Produces: "*ir.Program (SSA)",
		Counters: []string{"promoted"}},
	{Name: "verify", Phase: PhaseSSA, Needs: []string{"mem2reg"}, Variants: "module",
		Produces: "verified IR"},
	{Name: "link", Phase: PhaseLink, Needs: []string{"verify"},
		Produces: "*ir.Program (linked whole program)",
		Counters: []string{"funcs", "globals", "instrs", "modules", "reused"}},
	{Name: "scalar", Phase: PhaseScalarOpt, Needs: []string{"verify"}, Variants: "level",
		Produces: "*ir.Program (optimized)"},
	{Name: "pointer", Phase: PhasePointer, Needs: []string{"scalar"},
		Produces: "*pointer.Result (frozen)",
		Counters: []string{"constraint_nodes", "constraints", "copy_edges", "locations", "sccs_collapsed", "solver_visits", "solver_waves"}},
	{Name: "memssa", Phase: PhaseMemSSA, Needs: []string{"pointer"},
		Produces: "*memssa.Info",
		Counters: []string{"defs", "funcs"}},
	{Name: "vfg", Phase: PhaseVFG, Needs: []string{"pointer", "memssa"}, Variants: "graph",
		Produces: "*vfg.Graph (sealed)",
		Counters: []string{"edges", "nodes", "semistrong_cuts"}},
	{Name: "resolve", Phase: PhaseResolve, Needs: []string{"vfg"}, Variants: "graph",
		Produces: "*vfg.Gamma",
		Counters: []string{"bottom", "nodes"}},
	{Name: "optII", Phase: PhaseOpt, Needs: []string{"vfg", "resolve"},
		Produces: "*vfg.Gamma (checks redirected to ⊤)",
		Counters: []string{"redirected"}},
	{Name: "plan", Phase: PhaseInstrument, Needs: []string{"vfg", "resolve", "optII"}, Variants: "config",
		Produces: "*pipeline.PlanResult",
		Counters: []string{"checks", "checks_elided", "items", "mfcs_simplified", "props"}},
}

var byName = func() map[string]int {
	m := make(map[string]int, len(Registry))
	for i, p := range Registry {
		if _, dup := m[p.Name]; dup {
			panic(fmt.Sprintf("pipeline: duplicate pass %q", p.Name))
		}
		m[p.Name] = i
	}
	return m
}()

// ByName returns the registered pass and its registry rank; it panics on
// an unknown name (a programming error — passes are registered statically).
func ByName(name string) (*Pass, int) {
	i, ok := byName[name]
	if !ok {
		panic(fmt.Sprintf("pipeline: unknown pass %q", name))
	}
	return Registry[i], i
}
