// Package service implements usherd's long-running analysis server: an
// HTTP/JSON front end over the usher pipeline that amortizes static
// value-flow analysis across requests, the way the paper amortizes it
// across dynamic runs.
//
// # Request lifecycle
//
// POST /analyze carries MiniC source — either one file ("source") or a
// multi-file module set ("files"). The server keys the compiled program
// — and the pipeline.Store behind its usher.Session — by the SHA-256 of
// (optimization level, source) for single files and by (level,
// module.Graph.SetHash) for module sets, so a repeated or re-submitted
// identical program reuses every analysis artifact the earlier requests
// materialized: the second identical request runs zero pipeline passes
// (visible in the response's empty "phases" list and the /stats cache
// counters). Distinct programs occupy a byte-budgeted LRU
// (internal/cache) whose entry sizes are the pipeline's observed
// allocation volume — an upper bound on what the artifacts retain — so
// resident memory stays bounded under sustained traffic; least recently
// used programs are evicted whole.
//
// Module sets additionally share a per-module unit cache
// (module.Cache, budget ModuleCacheBytes) keyed by transitive content
// hash: a request that edits one module of a previously analyzed set
// gets a new program key — a program-cache miss — but its build re-runs
// the frontend only for the edited module and its dependents; every
// other module resolves from a warm unit. The response's "modules"
// summary reports the split.
//
// Concurrent identical submissions are single-flighted: the first
// request claims the key and builds; the rest coalesce onto the same
// entry (counted in /stats "coalesced") and wait for its build. An
// entry is published to the LRU before its in-flight claim is dropped,
// so there is no window where a racing request misses both and rebuilds.
//
// Per-request limits: the request body is capped (MaxBodyBytes), the
// whole request races a deadline (Timeout; the analysis itself is not
// preempted — a timed-out request's work completes and is cached for
// the next caller), and at most Workers requests analyze concurrently
// (the same bound discipline as pool.ForEach; excess requests
// queue until the deadline).
//
// Failure discipline: compile errors are the client's fault (422) and
// are never cached — each submission of a broken source re-compiles.
// Analysis errors are the server's fault (500); the session's cached
// failure is evicted immediately (Session.EvictErrors) so a transient
// fault cannot poison the content-hash key for the daemon's lifetime.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/cache"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/stats"
)

// SchemaVersion versions the /analyze, /stats and load-report JSON.
const SchemaVersion = 1

// Options configures a Server. The zero value is completed by New with
// the documented defaults.
type Options struct {
	// CacheBytes is the LRU budget for resident analysis artifacts
	// (default 256 MiB). Zero disables caching entirely.
	CacheBytes int64
	// ModuleCacheBytes is the budget for the per-module compile-unit
	// cache shared by multi-file requests (default 64 MiB). Negative
	// disables module reuse; every multi-file build compiles from
	// scratch.
	ModuleCacheBytes int64
	// MaxBodyBytes caps the /analyze request body (default 1 MiB).
	MaxBodyBytes int64
	// Timeout is the per-request deadline covering queueing, compile,
	// analysis and the dynamic run (default 30s).
	Timeout time.Duration
	// Workers bounds concurrently analyzing requests (default: NumCPU,
	// matching pool.DefaultParallelism).
	Workers int
	// MaxSteps bounds each dynamic run (default 50M instructions).
	MaxSteps int64
}

func (o Options) withDefaults() Options {
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.CacheBytes < 0 {
		o.CacheBytes = 0
	}
	if o.ModuleCacheBytes == 0 {
		o.ModuleCacheBytes = 64 << 20
	}
	if o.ModuleCacheBytes < 0 {
		o.ModuleCacheBytes = 0
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = pool.DefaultParallelism()
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 50_000_000
	}
	return o
}

// Server is the analysis daemon's state: the artifact cache plus the
// request counters /stats reports. Create with New, serve via Handler.
type Server struct {
	opts    Options
	start   time.Time
	lru     *cache.LRU[*progEntry]
	modules *module.Cache
	sem     chan struct{}

	mu       sync.Mutex
	inflight map[string]*progEntry

	requests      atomic.Int64
	cacheHits     atomic.Int64
	coalesced     atomic.Int64
	cacheMisses   atomic.Int64
	compileErrors atomic.Int64
	analyzeErrors atomic.Int64
	timeouts      atomic.Int64
	runsExecuted  atomic.Int64
	errorsEvicted atomic.Int64
}

// progEntry is one cached program: the compiled IR, its analysis
// session, and the per-entry stats collector whose snapshot deltas
// yield each request's "passes run" list.
type progEntry struct {
	key    string
	srcLen int64

	once  sync.Once
	file  string
	src   string
	files []module.File // multi-file set; nil for single-source requests
	lvl   passes.Level
	mc    *module.Cache
	par   int

	prog *ir.Program
	sess *usher.Session
	sc   *stats.Collector
	mods *ModuleSummary
	err  error
}

func (e *progEntry) build() {
	var prog *ir.Program
	if e.files != nil {
		res, err := module.Build(e.files, module.Options{
			Cache: e.mc, Stats: e.sc, Parallel: e.par,
		})
		if err != nil {
			e.err = err
			return
		}
		prog = res.Prog
		e.mods = &ModuleSummary{
			Count: len(res.Units), Reused: res.Reused, Compiled: res.Compiled,
		}
	} else {
		var err error
		if prog, err = pipeline.Compile(e.file, e.src, e.sc); err != nil {
			e.err = err
			return
		}
	}
	if err := pipeline.ApplyLevel(prog, e.lvl, e.sc); err != nil {
		e.err = err
		return
	}
	e.prog = prog
	e.sess = usher.NewSessionObserved(prog, e.sc)
	// The sources are not retained past the build; only their length
	// feeds the size estimate.
	e.src = ""
	e.files = nil
}

// size is the entry's accounted cache footprint: the source length plus
// every observed pass's allocation volume. Total allocation over-counts
// what the artifacts retain (solver scratch is freed), which errs on
// the safe side of the memory bound.
func (e *progEntry) size() int64 {
	var total int64 = e.srcLen
	for _, ps := range e.sc.Snapshot() {
		total += int64(ps.AllocBytes)
	}
	return total
}

// New prepares a server (no listener; pair Handler with http.Server).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:     opts,
		start:    time.Now(),
		lru:      cache.New[*progEntry](opts.CacheBytes),
		modules:  module.NewCache(opts.ModuleCacheBytes),
		sem:      make(chan struct{}, opts.Workers),
		inflight: make(map[string]*progEntry),
	}
}

// Handler returns the daemon's routes: POST /analyze, GET /stats,
// GET /healthz, and the standard pprof tree under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ---- /analyze ----

// FileEntry is one module of a multi-file submission.
type FileEntry struct {
	// Name is the module name: the position file name and the key other
	// modules' `#include "name"` directives resolve against.
	Name string `json:"name"`
	// Source is the module's MiniC source.
	Source string `json:"source"`
}

// AnalyzeRequest is the /analyze request body. Exactly one of Source
// (a single translation unit) or Files (a multi-file module set linked
// via `#include "name"` directives) must be set.
type AnalyzeRequest struct {
	// File is the display name used in diagnostics (default "request.c").
	// Single-file form only.
	File string `json:"file,omitempty"`
	// Source is the MiniC program (single-file form).
	Source string `json:"source,omitempty"`
	// Files is the module set (multi-file form). The program is keyed by
	// (level, set content hash); per-module compile units are reused
	// across requests from the daemon's module cache.
	Files []FileEntry `json:"files,omitempty"`
	// Configs names the instrumentation configurations to analyze under
	// (plan names like "Usher", or the usherc aliases msan/tl/tlat/opti/
	// usher/optiii; default ["Usher"]).
	Configs []string `json:"configs,omitempty"`
	// Level is the optimization level: O0, O0+IM (default), O1 or O2.
	Level string `json:"level,omitempty"`
	// Run selects whether to execute the program under each plan and
	// report dynamic warnings (default true).
	Run *bool `json:"run,omitempty"`
}

// Warning is one reported use of an undefined value.
type Warning struct {
	Fn    string `json:"fn"`
	Label int    `json:"label"`
	Pos   string `json:"pos"`
	What  string `json:"what"`
}

// RunResult is the dynamic half of one configuration's answer.
type RunResult struct {
	Exit         int64     `json:"exit"`
	Steps        int64     `json:"steps"`
	ShadowProps  int64     `json:"shadow_props"`
	ShadowChecks int64     `json:"shadow_checks"`
	Warnings     []Warning `json:"warnings"`
	// ShadowViolations are the run's reads of shadow state that the plan
	// never wrote: the plan is ill-formed (§3.4), so a clean report
	// cannot be trusted.
	ShadowViolations []string `json:"shadow_violations,omitempty"`
	// Error reports a trapped execution (division by zero, step budget,
	// ...): a property of the submitted program, not a server failure.
	Error string `json:"error,omitempty"`
}

// ConfigResult is one configuration's static plan statistics plus the
// optional dynamic run.
type ConfigResult struct {
	Config         string     `json:"config"`
	StaticProps    int        `json:"static_props"`
	StaticChecks   int        `json:"static_checks"`
	MFCsSimplified int        `json:"mfcs_simplified,omitempty"`
	Redirected     int        `json:"redirected,omitempty"`
	ChecksElided   int        `json:"checks_elided,omitempty"`
	Run            *RunResult `json:"run,omitempty"`
}

// ModuleSummary reports how a multi-file build split between warm
// units and fresh compiles.
type ModuleSummary struct {
	// Count is the number of modules in the set.
	Count int `json:"count"`
	// Reused counts modules resolved from warm compile units (module
	// cache hits or coalesced builds); Compiled counts modules whose
	// frontend passes ran. The split reflects the build that created
	// this program entry, not necessarily this request.
	Reused   int `json:"reused"`
	Compiled int `json:"compiled"`
}

// AnalyzeResponse is the /analyze response body.
type AnalyzeResponse struct {
	SchemaVersion int `json:"schema_version"`
	// Key is the content hash the program's artifacts are cached under:
	// hex SHA-256 of level + source (single-file) or of level + the
	// module set's SetHash (multi-file).
	Key string `json:"key"`
	// CacheHit reports whether the program's session already existed
	// (resident or being built by a concurrent request).
	CacheHit bool `json:"cache_hit"`
	// Modules summarizes a multi-file build (absent for single files).
	Modules *ModuleSummary `json:"modules,omitempty"`
	Configs []ConfigResult `json:"configs"`
	// Phases lists the pipeline passes that ran during THIS request
	// (empty on a full cache hit) with their wall time and counters.
	Phases    []stats.PassStats `json:"phases"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func fail(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// Key returns the cache key for a single source at a level: the full
// hex SHA-256 of the level name and the source text.
func Key(level passes.Level, source string) string {
	h := sha256.New()
	h.Write([]byte(level.String()))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// KeySet returns the cache key for a module set at a level. The set
// hash already covers every module's name, source and dependency
// hashes; the domain separator keeps single-file and multi-file keys
// disjoint even for colliding strings.
func KeySet(level passes.Level, setHash string) string {
	h := sha256.New()
	h.Write([]byte(level.String()))
	h.Write([]byte{0})
	h.Write([]byte("module-set\x00"))
	h.Write([]byte(setHash))
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	start := time.Now()
	deadline := time.NewTimer(s.opts.Timeout)
	defer deadline.Stop()
	done := make(chan struct{})
	var resp *AnalyzeResponse
	var herr *httpError
	go func() {
		defer close(done)
		resp, herr = s.analyze(&req, deadline.C)
	}()
	select {
	case <-done:
	case <-deadline.C:
		// The worker is not preempted: its result is cached for the next
		// request; only this response gives up.
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout,
			"request exceeded the %s deadline", s.opts.Timeout)
		return
	}
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// analyze is the worker half of handleAnalyze: validate, acquire a
// worker slot, resolve the cached session, analyze and optionally run.
func (s *Server) analyze(req *AnalyzeRequest, deadline <-chan time.Time) (*AnalyzeResponse, *httpError) {
	multi := len(req.Files) > 0
	if multi && strings.TrimSpace(req.Source) != "" {
		return nil, fail(http.StatusBadRequest, `"source" and "files" are mutually exclusive`)
	}
	if !multi && strings.TrimSpace(req.Source) == "" {
		return nil, fail(http.StatusBadRequest, `"source" or "files" is required`)
	}
	file := req.File
	if file == "" {
		file = "request.c"
	}
	levelName := req.Level
	if levelName == "" {
		levelName = "O0+IM"
	}
	level, err := passes.ParseLevel(levelName)
	if err != nil {
		return nil, fail(http.StatusBadRequest, "%v", err)
	}
	cfgNames := req.Configs
	if len(cfgNames) == 0 {
		cfgNames = []string{"usher"}
	}
	cfgs := make([]usher.Config, len(cfgNames))
	for i, name := range cfgNames {
		if cfgs[i], err = usher.ParseConfig(name); err != nil {
			return nil, fail(http.StatusBadRequest, "%v", err)
		}
	}
	run := req.Run == nil || *req.Run

	// Worker slot: the bounded pool. Queueing counts against the
	// request's own deadline rather than blocking without bound.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-deadline:
		return nil, fail(http.StatusServiceUnavailable,
			"no worker became available within the %s deadline", s.opts.Timeout)
	}

	var key string
	var files []module.File
	if multi {
		files = make([]module.File, len(req.Files))
		var srcLen int64
		for i, f := range req.Files {
			files[i] = module.File{Name: f.Name, Source: f.Source}
			srcLen += int64(len(f.Source))
		}
		if srcLen == 0 {
			return nil, fail(http.StatusBadRequest, `"files" must carry source`)
		}
		// The dependency graph is validated (and the set hash computed)
		// before the cache lookup; a broken graph is the client's fault.
		g, gerr := module.NewGraph(files)
		if gerr != nil {
			s.compileErrors.Add(1)
			return nil, fail(http.StatusUnprocessableEntity, "modules: %v", gerr)
		}
		key = KeySet(level, g.SetHash())
	} else {
		key = Key(level, req.Source)
	}
	e, hit := s.lookup(key, file, req.Source, files, level)
	if hit {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	built := false
	e.once.Do(func() {
		built = true
		e.build()
	})
	if e.err != nil {
		// Compile errors are never cached: drop the entry so a corrected
		// resubmission (or even the same source) starts clean.
		s.abandon(e)
		s.compileErrors.Add(1)
		return nil, fail(http.StatusUnprocessableEntity, "compile: %v", e.err)
	}

	// The request that ran the build reports its frontend passes too: the
	// entry's collector was empty until then. A coalesced waiter or a
	// cache hit counts from here.
	var before []stats.PassStats
	if !built {
		before = e.sc.Snapshot()
	}
	resp := &AnalyzeResponse{SchemaVersion: SchemaVersion, Key: key, CacheHit: hit, Modules: e.mods}
	for i, cfg := range cfgs {
		an, err := e.sess.Analyze(cfg)
		if err != nil {
			// Evict the cached failure immediately: the next request must
			// retry the pass, not replay a possibly transient fault.
			s.errorsEvicted.Add(int64(e.sess.EvictErrors()))
			s.analyzeErrors.Add(1)
			s.finish(e)
			return nil, fail(http.StatusInternalServerError,
				"analyze %s: %v", cfgNames[i], err)
		}
		st := an.StaticStats()
		cr := ConfigResult{
			Config:         cfg.String(),
			StaticProps:    st.Props,
			StaticChecks:   st.Checks,
			MFCsSimplified: an.MFCsSimplified,
			Redirected:     an.Redirected,
			ChecksElided:   an.ChecksElided,
		}
		if run {
			cr.Run = s.runPlan(an)
		}
		resp.Configs = append(resp.Configs, cr)
	}
	resp.Phases = statsDelta(before, e.sc.Snapshot())
	s.finish(e)
	return resp, nil
}

// runPlan executes the program under the analysis' instrumentation and
// converts the result. A trap is reported in-band: the submitted
// program misbehaving is an answer, not a server failure.
func (s *Server) runPlan(an *usher.Analysis) *RunResult {
	s.runsExecuted.Add(1)
	res, err := an.Run(usher.RunOptions{MaxSteps: s.opts.MaxSteps})
	rr := &RunResult{}
	if err != nil {
		rr.Error = err.Error()
	}
	if res != nil {
		rr.Exit = res.Exit.Int
		rr.Steps = res.Steps
		rr.ShadowProps = res.ShadowProps
		rr.ShadowChecks = res.ShadowChecks
		rr.Warnings = convertWarnings(res.ShadowWarnings)
		rr.ShadowViolations = res.ShadowViolations
	}
	return rr
}

func convertWarnings(ws []interp.Warning) []Warning {
	out := make([]Warning, len(ws))
	for i, w := range ws {
		out[i] = Warning{Fn: w.Fn, Label: w.Label, Pos: w.Pos.String(), What: w.What}
	}
	return out
}

// lookup resolves the cache entry for key, creating and claiming it on
// a miss. The second return is true when the entry already existed —
// resident in the LRU or still being built by a concurrent request
// (the latter also counts as coalesced in /stats).
func (s *Server) lookup(key, file, src string, files []module.File, lvl passes.Level) (*progEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.lru.Get(key); ok {
		return e, true
	}
	if e, ok := s.inflight[key]; ok {
		s.coalesced.Add(1)
		return e, true
	}
	srcLen := int64(len(src))
	for _, f := range files {
		srcLen += int64(len(f.Source))
	}
	e := &progEntry{
		key: key, srcLen: srcLen,
		file: file, src: src, files: files, lvl: lvl,
		mc: s.modules, par: s.opts.Workers,
		sc: stats.New(),
	}
	s.inflight[key] = e
	return e, false
}

// finish publishes a successfully built entry: admitted to (or
// refreshed in) the LRU at its current accounted size, and cleared from
// the in-flight set. The Put happens before the in-flight claim is
// dropped — both under s.mu, the same order lookup takes the locks — so
// a racing identical request always finds the entry in one of the two
// maps and never rebuilds.
func (s *Server) finish(e *progEntry) {
	size := e.size()
	s.mu.Lock()
	s.lru.Put(e.key, e, size)
	delete(s.inflight, e.key)
	s.mu.Unlock()
}

// abandon drops an entry that must not be cached (compile failure).
func (s *Server) abandon(e *progEntry) {
	s.mu.Lock()
	s.lru.Remove(e.key)
	delete(s.inflight, e.key)
	s.mu.Unlock()
}

// ---- /stats ----

// ServerStats is the /stats response body.
type ServerStats struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeSec     float64 `json:"uptime_sec"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`

	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts the subset of cache hits that attached to a
	// concurrent identical request's in-flight build instead of a
	// resident entry.
	Coalesced     int64 `json:"coalesced"`
	CacheMisses   int64 `json:"cache_misses"`
	CompileErrors int64 `json:"compile_errors"`
	AnalyzeErrors int64 `json:"analyze_errors"`
	Timeouts      int64 `json:"timeouts"`
	RunsExecuted  int64 `json:"runs_executed"`
	// ErrorsEvicted counts cached pass failures discarded for retry
	// (Session.EvictErrors) after analysis errors.
	ErrorsEvicted int64 `json:"errors_evicted"`

	Cache cache.Stats `json:"cache"`
	// ModuleCache is the per-module compile-unit cache serving
	// multi-file requests.
	ModuleCache cache.Stats `json:"module_cache"`
	// HeapBytes is the Go runtime's live-heap estimate, for judging the
	// LRU budget against actual residency.
	HeapBytes uint64 `json:"heap_bytes"`
	// Phases aggregates the pipeline passes of every RESIDENT cache
	// entry (evicted programs leave the aggregate with their artifacts).
	Phases []stats.PassStats `json:"phases,omitempty"`
}

// Stats assembles the daemon's point-in-time statistics.
func (s *Server) Stats() ServerStats {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st := ServerStats{
		SchemaVersion: SchemaVersion,
		UptimeSec:     time.Since(s.start).Seconds(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       s.opts.Workers,
		Requests:      s.requests.Load(),
		CacheHits:     s.cacheHits.Load(),
		Coalesced:     s.coalesced.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		CompileErrors: s.compileErrors.Load(),
		AnalyzeErrors: s.analyzeErrors.Load(),
		Timeouts:      s.timeouts.Load(),
		RunsExecuted:  s.runsExecuted.Load(),
		ErrorsEvicted: s.errorsEvicted.Load(),
		Cache:         s.lru.Stats(),
		ModuleCache:   s.modules.Stats(),
		HeapBytes:     mem.HeapAlloc,
	}
	var snaps [][]stats.PassStats
	s.lru.Range(func(_ string, e *progEntry) {
		snaps = append(snaps, e.sc.Snapshot())
	})
	st.Phases = mergeSnapshots(snaps)
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// ---- helpers ----

// statsDelta returns the passes whose run count grew between two
// snapshots of one collector: the work THIS request caused. Wall time,
// allocation and counters are differenced alongside.
func statsDelta(before, after []stats.PassStats) []stats.PassStats {
	type k struct{ pass, variant string }
	prev := make(map[k]stats.PassStats, len(before))
	for _, ps := range before {
		prev[k{ps.Pass, ps.Variant}] = ps
	}
	delta := []stats.PassStats{}
	for _, ps := range after {
		b := prev[k{ps.Pass, ps.Variant}]
		if ps.Runs <= b.Runs {
			continue
		}
		d := ps
		d.Runs -= b.Runs
		d.WallSec -= b.WallSec
		d.AllocBytes -= b.AllocBytes
		if len(b.Counters) > 0 {
			d.Counters = make(map[string]int64, len(ps.Counters))
			for name, v := range ps.Counters {
				if dv := v - b.Counters[name]; dv != 0 {
					d.Counters[name] = dv
				}
			}
		}
		delta = append(delta, d)
	}
	return delta
}

// mergeSnapshots folds several collectors' snapshots into one list,
// summing by (pass, variant) and keeping the pipeline order of the
// first snapshot that mentions each pass.
func mergeSnapshots(snaps [][]stats.PassStats) []stats.PassStats {
	type k struct{ pass, variant string }
	idx := make(map[k]int)
	var out []stats.PassStats
	for _, snap := range snaps {
		for _, ps := range snap {
			key := k{ps.Pass, ps.Variant}
			i, ok := idx[key]
			if !ok {
				idx[key] = len(out)
				cp := ps
				if ps.Counters != nil {
					cp.Counters = make(map[string]int64, len(ps.Counters))
					for name, v := range ps.Counters {
						cp.Counters[name] = v
					}
				}
				out = append(out, cp)
				continue
			}
			out[i].Runs += ps.Runs
			out[i].WallSec += ps.WallSec
			out[i].AllocBytes += ps.AllocBytes
			for name, v := range ps.Counters {
				if out[i].Counters == nil {
					out[i].Counters = make(map[string]int64)
				}
				out[i].Counters[name] += v
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return out[i].Variant < out[j].Variant
	})
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"status": status,
	})
}
