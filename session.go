package usher

import (
	"time"

	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/snapshot"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/vfg"
)

// Session caches the config-invariant analysis artifacts of one compiled
// program so that analyzing it under several configurations — the paper
// evaluates five or six per program — pays for the pointer analysis,
// memory SSA, value-flow graph and definedness resolution exactly once.
//
// Session is a thin facade over the pipeline artifact store
// (internal/pipeline): every stage is a registered pass whose artifact is
// computed exactly once per session, shared read-only, with errors (and
// captured panics) cached alongside — every later call for the same
// artifact reports the same error. A Session is safe for concurrent
// Analyze calls from multiple goroutines; see internal/pipeline for the
// immutability argument (frozen union-find, sealed graphs — the latter
// enforced at the store boundary).
//
// Two VFG variants exist: the full graph (address-taken variables
// modelled), shared by MSan, UsherTL+AT, UsherOptI, Usher and
// Usher+OptIII, and the top-level-only graph used by UsherTL. Each is
// built lazily on first demand.
type Session struct {
	Prog  *ir.Program
	store *pipeline.Store
}

// NewSession prepares a shared-analysis session for prog. All artifacts
// are computed lazily; a session that is never analyzed costs nothing.
func NewSession(prog *ir.Program) *Session {
	return NewSessionObserved(prog, nil)
}

// NewSessionObserved is NewSession with per-pass observability: every
// pipeline pass run is timed and counted into sc (nil records nothing,
// making it identical to NewSession).
func NewSessionObserved(prog *ir.Program, sc *stats.Collector) *Session {
	return &Session{Prog: prog, store: pipeline.NewStore(prog, sc)}
}

// Base returns the configuration-invariant pointer analysis and memory
// SSA, computing them on first use.
func (s *Session) Base() (*pointer.Result, *memssa.Info, error) {
	pa, err := s.store.Pointer()
	if err != nil {
		return nil, nil, err
	}
	mem, err := s.store.MemSSA()
	if err != nil {
		return nil, nil, err
	}
	return pa, mem, nil
}

// Graph returns the shared value-flow graph and its resolved Γ for the
// given variant (topLevelOnly selects the Usher_TL graph).
func (s *Session) Graph(topLevelOnly bool) (*vfg.Graph, *vfg.Gamma, error) {
	g, err := s.store.Graph(topLevelOnly)
	if err != nil {
		return nil, nil, err
	}
	gm, err := s.store.Gamma(topLevelOnly)
	if err != nil {
		return nil, nil, err
	}
	return g, gm, nil
}

// Analyze runs the static pipeline for one configuration, reusing every
// config-invariant artifact the session has already computed. The result
// is identical to a standalone Analyze call on the same program. The
// dispatch is driven by the config-capabilities table (see configTable in
// usher.go); a Config outside the table is an error.
func (s *Session) Analyze(cfg Config) (_ *Analysis, err error) {
	defer diag.Guard(diag.PhaseAnalyze, &err)
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	a := &Analysis{Config: cfg, Prog: s.Prog}
	if pr, ok := s.store.PreloadedPlan(spec.plan.Name); ok {
		// Snapshot warm start: the preloaded plan answers the
		// configuration without demanding any analysis pass — Run
		// consumes only the plan. Graph, Mem and Gamma stay nil (the
		// snapshot does not carry them); Pointer is the imported result.
		a.Plan = pr.Plan
		a.MFCsSimplified = pr.MFCsSimplified
		a.Redirected = pr.Redirected
		a.ChecksElided = pr.ChecksElided
		if pa, ok := s.store.PreloadedPointer(); ok {
			a.Pointer = pa
		}
		return a, nil
	}
	a.Pointer, a.Mem, err = s.Base()
	if err != nil {
		return nil, err
	}
	a.Graph, a.Gamma, err = s.Graph(spec.plan.TopLevelOnly)
	if err != nil {
		return nil, err
	}
	pr, err := s.store.Plan(spec.plan)
	if err != nil {
		return nil, err
	}
	a.Plan = pr.Plan
	a.Gamma = pr.Gamma
	a.MFCsSimplified = pr.MFCsSimplified
	a.Redirected = pr.Redirected
	a.ChecksElided = pr.ChecksElided
	return a, nil
}

// MustAnalyze is Analyze for programs known to analyze cleanly; it panics
// on error (a caller contract violation, see package diag).
func (s *Session) MustAnalyze(cfg Config) *Analysis {
	a, err := s.Analyze(cfg)
	diag.MustNil("analyze "+cfg.String(), err)
	return a
}

// WarmStart seeds the session from a snapshot of the same program: the
// serialized pointer result is imported and every stored
// instrumentation plan is preloaded into the artifact store, so Analyze
// skips the pointer solve, memory SSA, VFG construction and Γ
// resolution for every configuration the snapshot carries. Artifacts
// the session has already computed keep precedence (a pass that ran
// wins over the snapshot). The caller is responsible for matching the
// snapshot to the program — snapshot.Load/Read verify the content
// fingerprint and refuse stale files — and a damaged snapshot surfaces
// here as an import error, letting callers fall back to a cold solve.
// Returns the number of artifacts seeded.
//
// WarmStart is safe to race with Analyze on the same session: the
// pointer import mutates the IR (object collapsing), so it runs inside
// the store's pointer slot — either the import claims the slot first
// and every concurrent Analyze consumes the imported result, or a cold
// solve got there first and the import is skipped entirely. Both orders
// produce plans with identical fingerprints.
func (s *Session) WarmStart(snap *snapshot.Snapshot) (int, error) {
	start := time.Now()
	n := 0
	seeded, err := s.store.PreloadFunc("pointer", "", func() (any, error) {
		return pointer.Import(s.Prog, snap.Pointer)
	})
	if err != nil {
		return 0, err
	}
	if seeded {
		n++
	}
	plans := 0
	for _, pe := range snap.Plans {
		pr := &pipeline.PlanResult{
			Plan:           pe.Plan,
			MFCsSimplified: pe.MFCsSimplified,
			Redirected:     pe.Redirected,
			ChecksElided:   pe.ChecksElided,
			Demanded:       pe.Demanded,
		}
		if s.store.Preload("plan", pe.Name, pr) {
			n++
			plans++
		}
	}
	s.store.Observe("snapshot", "", time.Since(start), map[string]int64{
		"plans_loaded": int64(plans),
		"pts_regs":     int64(len(snap.Pointer.Regs)),
		"call_edges":   int64(len(snap.Pointer.Calls)),
	})
	return n, nil
}

// Snapshot assembles the persistable view of the session's solved
// state: the pointer export plus every instrumentation plan computed so
// far (call it after the analyses of interest have run). Only
// cold-solved sessions can snapshot — a warm-started session's pointer
// result was itself imported and has no solver state to export.
func (s *Session) Snapshot() (*snapshot.Snapshot, error) {
	pa, err := s.store.Pointer()
	if err != nil {
		return nil, err
	}
	ex, err := pa.Export(s.Prog)
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{Pointer: ex}
	for _, name := range s.store.PlanNames() {
		pr, ok := s.store.CachedPlan(name)
		if !ok {
			continue
		}
		snap.Plans = append(snap.Plans, snapshot.PlanEntry{
			Name:           name,
			Plan:           pr.Plan,
			MFCsSimplified: pr.MFCsSimplified,
			Redirected:     pr.Redirected,
			ChecksElided:   pr.ChecksElided,
			Demanded:       pr.Demanded,
		})
	}
	return snap, nil
}

// EvictErrors discards every cached pass failure in the session's
// artifact store so the next Analyze retries those passes. Successful
// artifacts are untouched. Long-lived holders (the usherd daemon) call
// it after serving an error: the cached-error contract still holds for
// concurrent requests to one failure, but a transient fault no longer
// poisons the session forever. Returns the number of evicted failures.
func (s *Session) EvictErrors() int { return s.store.EvictErrors() }

// AnalyzeAll analyzes every configuration in cfgs, reusing the shared
// artifacts, and returns the results in the same order. The first
// configuration that fails aborts the sweep.
func (s *Session) AnalyzeAll(cfgs []Config) ([]*Analysis, error) {
	out := make([]*Analysis, len(cfgs))
	for i, cfg := range cfgs {
		a, err := s.Analyze(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}
