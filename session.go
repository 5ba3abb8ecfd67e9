package usher

import (
	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
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

// EvictErrors discards every cached pass failure in the session's
// artifact store so the next Analyze retries those passes. Successful
// artifacts are untouched. Long-lived holders (the usherd daemon) call
// it after serving an error: the cached-error contract still holds for
// concurrent requests to one failure, but a transient fault no longer
// poisons the session forever. Returns the number of evicted failures.
func (s *Session) EvictErrors() int { return s.store.EvictErrors() }
