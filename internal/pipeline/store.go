package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgopt"
)

// Graph-variant key strings.
const (
	variantFull = "full"
	variantTL   = "tl"
)

// Key identifies one artifact in a Store: the producing pass plus its
// variant (see Pass.Variants).
type Key struct {
	Pass    string
	Variant string
}

// entry is one memoized artifact slot. The error is cached exactly like
// the value: every later request for the same key observes the identical
// error (the cached-error contract usher.Session documents) — until the
// owner calls EvictErrors, which discards failed slots so the pass can
// be retried. Long-lived stores (the usherd daemon) need that escape
// hatch: without it one transient failure poisons the key for the
// process lifetime.
type entry struct {
	once sync.Once
	val  any
	err  error
}

// Store is the keyed, concurrency-safe artifact store for one compiled
// program. Every registered pass computes its artifact exactly once per
// store, no matter how many goroutines request it concurrently; dependent
// passes resolve their inputs through the store, so requesting any
// artifact lazily materializes its whole prerequisite chain.
//
// Sharing the artifacts is sound because every stored structure is
// immutable once its pass returns: the pointer Result freezes its
// union-find, VFGs are sealed (enforced here, at the store boundary), and
// per-configuration passes only read the shared graph or derive fresh
// data from it. A panic inside a pass is captured as an error and cached
// with the artifact.
//
// When the store carries a stats.Collector, every pass run is recorded:
// wall time, allocation volume, and the pass's deterministic work
// counters (see the Registry and package stats for the determinism
// contract).
type Store struct {
	prog *ir.Program
	sc   *stats.Collector

	mu      sync.Mutex
	entries map[Key]*entry
	// done marks keys whose entry has completed (pass ran or seed
	// applied). It is guarded by mu — completion is published here after
	// once.Do returns, so EvictErrors never races the pass body.
	done map[Key]bool
}

// NewStore prepares an artifact store for prog, recording pass
// observations into sc (nil records nothing). Artifacts are computed
// lazily; a store that is never queried costs nothing.
func NewStore(prog *ir.Program, sc *stats.Collector) *Store {
	return &Store{
		prog: prog, sc: sc,
		entries: make(map[Key]*entry),
		done:    make(map[Key]bool),
	}
}

// Prog returns the program the store analyzes.
func (st *Store) Prog() *ir.Program { return st.prog }

// Collector returns the store's stats collector (nil when unobserved).
func (st *Store) Collector() *stats.Collector { return st.sc }

func (st *Store) entryFor(k Key) *entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[k]
	if e == nil {
		e = &entry{}
		st.entries[k] = e
	}
	return e
}

// run computes the keyed artifact exactly once. fn returns the artifact
// plus its deterministic counters; dependencies must be resolved by the
// caller BEFORE run so a pass's recorded wall time covers only its own
// work. Panics become cached errors (diag.PhaseAnalyze).
func (st *Store) run(pass, variant string, fn func() (any, map[string]int64, error)) (any, error) {
	e := st.entryFor(Key{pass, variant})
	e.once.Do(func() {
		defer diag.Guard(diag.PhaseAnalyze, &e.err)
		p, rank := ByName(pass)
		var m0 runtime.MemStats
		var start time.Time
		observed := st.sc.Enabled()
		if observed {
			runtime.ReadMemStats(&m0)
			start = time.Now()
		}
		v, counters, err := fn()
		if observed {
			wall := time.Since(start)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			st.sc.Add(stats.Sample{
				Rank: rank, Pass: p.Name, Phase: string(p.Phase), Variant: variant,
				Wall: wall, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
				Counters: counters,
			})
		}
		if err != nil {
			e.err = err
			return
		}
		e.val = v
	})
	st.setDone(Key{pass, variant}, e)
	return e.val, e.err
}

// setDone publishes e's completion, but only while e is still the live
// slot for k: a request that raced an EvictErrors call must not mark
// the replacement slot done before its pass has run.
func (st *Store) setDone(k Key, e *entry) {
	st.mu.Lock()
	if st.entries[k] == e {
		st.done[k] = true
	}
	st.mu.Unlock()
}

// EvictErrors discards every completed entry whose pass failed, so the
// next request for each evicted key re-runs the pass instead of
// replaying the cached error. Requests already in flight on an evicted
// slot still observe its error (they resolved the slot before the
// eviction); entries still computing are left alone. Returns the number
// of slots evicted.
//
// Within one slot's lifetime the cached-error contract is unchanged —
// every request observes the identical error value. EvictErrors bounds
// that lifetime, which is what a long-lived process needs after a
// transient failure (a canceled pass, a resource limit) so the content
// hash is not poisoned forever.
func (st *Store) EvictErrors() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for k, e := range st.entries {
		if !st.done[k] || e.err == nil {
			continue
		}
		delete(st.entries, k)
		delete(st.done, k)
		n++
	}
	return n
}

// Preload seeds the keyed artifact with v without running its pass, so
// every pass that consumes the artifact reads v in its place. It is the
// seam through which a test substitutes an implementation: the pointer
// solver's A/B test seeds the legacy reference solver's result and runs
// the rest of the pipeline unchanged. The seed is dropped (returns false)
// when the artifact was already computed or seeded.
func (st *Store) Preload(pass, variant string, v any) bool {
	ByName(pass) // unknown pass is a programming error, exactly like run
	k := Key{pass, variant}
	e := st.entryFor(k)
	seeded := false
	e.once.Do(func() {
		e.val = v
		seeded = true
	})
	if seeded {
		st.setDone(k, e)
	}
	return seeded
}

// Pointer returns the whole-program pointer analysis, solving on first
// use.
func (st *Store) Pointer() (*pointer.Result, error) {
	v, err := st.run("pointer", "", func() (any, map[string]int64, error) {
		pa := pointer.Analyze(st.prog)
		ss := pa.Stats
		return pa, map[string]int64{
			"constraint_nodes": int64(ss.Nodes),
			"constraints":      int64(ss.Constraints),
			"copy_edges":       int64(ss.CopyEdges),
			"locations":        int64(ss.Locations),
			"sccs_collapsed":   int64(ss.SCCsCollapsed),
			"solver_visits":    int64(ss.Visits),
			"solver_waves":     int64(ss.Waves),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*pointer.Result), nil
}

// MemSSA returns the whole-program memory SSA.
func (st *Store) MemSSA() (*memssa.Info, error) {
	pa, err := st.Pointer()
	if err != nil {
		return nil, err
	}
	v, err := st.run("memssa", "", func() (any, map[string]int64, error) {
		mem := memssa.Build(st.prog, pa)
		defs := 0
		for _, fi := range mem.Funcs {
			defs += len(fi.AllDefs)
		}
		return mem, map[string]int64{
			"funcs": int64(len(mem.Funcs)),
			"defs":  int64(defs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*memssa.Info), nil
}

func graphVariant(topLevelOnly bool) string {
	if topLevelOnly {
		return variantTL
	}
	return variantFull
}

// Graph returns the sealed value-flow graph of the requested flavor
// (topLevelOnly selects the Usher_TL graph). The sealing invariant is
// enforced here: an unsealed graph would let concurrent consumers
// materialize nodes and race, so it is rejected at the store boundary.
func (st *Store) Graph(topLevelOnly bool) (*vfg.Graph, error) {
	pa, err := st.Pointer()
	if err != nil {
		return nil, err
	}
	mem, err := st.MemSSA()
	if err != nil {
		return nil, err
	}
	v, err := st.run("vfg", graphVariant(topLevelOnly), func() (any, map[string]int64, error) {
		g := vfg.Build(st.prog, pa, mem, vfg.Options{TopLevelOnly: topLevelOnly})
		if !g.Sealed() {
			return nil, nil, fmt.Errorf("pipeline: vfg.Build returned an unsealed graph (store sharing invariant violated)")
		}
		return g, map[string]int64{
			"nodes":           int64(len(g.Nodes)),
			"edges":           int64(g.NumEdges()),
			"semistrong_cuts": int64(g.SemiStrongCuts),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*vfg.Graph), nil
}

// Gamma returns the resolved definedness of the requested graph flavor.
func (st *Store) Gamma(topLevelOnly bool) (*vfg.Gamma, error) {
	g, err := st.Graph(topLevelOnly)
	if err != nil {
		return nil, err
	}
	v, err := st.run("resolve", graphVariant(topLevelOnly), func() (any, map[string]int64, error) {
		gm := vfg.Resolve(g)
		return gm, map[string]int64{
			"nodes":  int64(len(g.Nodes)),
			"bottom": int64(gm.BottomCount()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*vfg.Gamma), nil
}

// OptIIResult is the artifact of the Opt II pass: the re-resolved Γ with
// redundant-check sources redirected to ⊤, shared by every configuration
// that enables Opt II (Usher and Usher+OptIII consume the same artifact).
type OptIIResult struct {
	Gamma      *vfg.Gamma
	Redirected int
}

// OptII returns the redundant-check-elimination artifact over the full
// graph (Algorithm 1 of the paper).
func (st *Store) OptII() (*OptIIResult, error) {
	g, err := st.Graph(false)
	if err != nil {
		return nil, err
	}
	gm, err := st.Gamma(false)
	if err != nil {
		return nil, err
	}
	v, err := st.run("optII", "", func() (any, map[string]int64, error) {
		g2, redirected := vfgopt.RedundantCheckElim(g, gm)
		return &OptIIResult{Gamma: g2, Redirected: redirected},
			map[string]int64{"redirected": int64(redirected)}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*OptIIResult), nil
}

// PlanSpec declares one instrumentation configuration's capabilities: the
// single table usher's config dispatch is driven by. The zero value is a
// guided configuration over the full graph with no optimizations
// (Usher_TL+AT).
type PlanSpec struct {
	// Name keys the plan artifact and labels the emitted plan.
	Name string
	// Full selects MSan-style full instrumentation (no VFG guidance).
	Full bool
	// TopLevelOnly selects the Usher_TL graph (no address-taken modeling).
	TopLevelOnly bool
	// OptI/OptII/OptIII enable the VFG-based optimizations (§3.5 and the
	// Opt III extension).
	OptI, OptII, OptIII bool
	// MemoryFull instruments every allocation and store unconditionally
	// (required when the graph cannot prove memory shadows unnecessary).
	MemoryFull bool
}

// PlanResult is the per-configuration artifact: the instrumentation plan,
// the Γ it was emitted against, and the optimization statistics.
type PlanResult struct {
	Plan *instrument.Plan
	// Gamma is the definedness used for emission (the Opt II artifact's
	// re-resolved Γ when the configuration enables Opt II).
	Gamma *vfg.Gamma
	// MFCsSimplified, Redirected and ChecksElided are the Opt I / Opt II /
	// Opt III statistics (zero for configurations that do not run them).
	MFCsSimplified int
	Redirected     int
	ChecksElided   int
	// Demanded counts VFG nodes that required shadow tracking.
	Demanded int
}

// Plan returns the instrumentation plan artifact for spec, computing it
// (and every prerequisite) on first use.
func (st *Store) Plan(spec PlanSpec) (*PlanResult, error) {
	// Resolve the inputs outside the timed pass body.
	g, err := st.Graph(spec.TopLevelOnly && !spec.Full)
	if err != nil {
		return nil, err
	}
	gm, err := st.Gamma(spec.TopLevelOnly && !spec.Full)
	if err != nil {
		return nil, err
	}
	redirected := 0
	if spec.OptII && !spec.Full {
		o2, err := st.OptII()
		if err != nil {
			return nil, err
		}
		gm, redirected = o2.Gamma, o2.Redirected
	}
	v, err := st.run("plan", spec.Name, func() (any, map[string]int64, error) {
		var res *PlanResult
		if spec.Full {
			res = &PlanResult{Plan: instrument.Full(st.prog), Gamma: gm}
		} else {
			er := instrument.Emit(spec.Name, g, gm, redirected, instrument.GuidedOptions{
				OptI:       spec.OptI,
				OptIII:     spec.OptIII,
				MemoryFull: spec.MemoryFull,
			})
			res = &PlanResult{
				Plan:           er.Plan,
				Gamma:          er.Gamma,
				MFCsSimplified: er.MFCsSimplified,
				Redirected:     er.Redirected,
				ChecksElided:   er.ChecksElided,
				Demanded:       er.Demanded,
			}
		}
		ss := res.Plan.StaticStats()
		return res, map[string]int64{
			"items":           int64(ss.Items),
			"props":           int64(ss.Props),
			"checks":          int64(ss.Checks),
			"mfcs_simplified": int64(res.MFCsSimplified),
			"checks_elided":   int64(res.ChecksElided),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*PlanResult), nil
}
