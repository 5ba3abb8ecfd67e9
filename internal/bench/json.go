package bench

import (
	"time"

	"github.com/valueflow/usher/internal/stats"
)

// PhaseTime records the wall-clock duration of one driver phase (table1,
// fig10, ...), as opposed to the per-pass analysis phases in Phases.
type PhaseTime struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// LevelRows pairs a Figure 10 run with its optimization level.
type LevelRows struct {
	Level string        `json:"level"`
	Rows  []OverheadRow `json:"rows"`
}

// SchemaVersion identifies the JSON layout of the drivers' reports
// (usher-bench and usher-difftest share it), so downstream tooling can
// evolve alongside them. Bump on any incompatible change.
//
// v2: "phases" became the per-pass analysis stats (pass/phase/variant,
// runs, wall_sec, alloc_bytes, counters — see internal/stats); the driver
// phase timings moved to "driver_phases".
//
// v3: added the "resolve" section (the resolution-scaling harness:
// summary-based Γ resolution vs the dense baseline) and the top-level
// "gamma_summaries" field recording whether the run resolved through
// Opt IV summaries.
//
// v4: usher-difftest gained the sanitizer-vs-sanitizer mutation
// campaign: the report's "mutants" counts replayed mutants and each
// finding may carry a "mutation" tag naming the semantic mutation
// (kind#index) that planted the divergence.
//
// v5: the pointer analysis has one solver, and the harnesses that
// predate perfbench are retired. Removed fields: "solver" (solver
// implementation name), "solver_workers" (parallel-solver worker count),
// "solver_scale" (the solver-scaling section) and "incremental" (the
// multi-file build section).
//
// v6: Γ has one resolver. Removed fields: "gamma_summaries" (whether Γ
// resolution ran through the summary resolver) and "resolve" (the
// resolution-scaling section).
const SchemaVersion = 6

// Report is the machine-readable form of one usher-bench invocation,
// written by the -json flag. It captures everything the text renderers
// print plus the execution environment, per-driver-phase wall-clock, and
// (with -stats) per-analysis-pass observations, so perf trajectories can
// be tracked across commits and machines and attributed to pipeline
// phases.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	GeneratedAt   string `json:"generated_at"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Parallel      int    `json:"parallel"`

	// DriverPhases times the driver's coarse phases (table1, fig10, ...).
	DriverPhases []PhaseTime `json:"driver_phases"`
	// Phases is the per-pass analysis breakdown (present with -stats).
	// Runs and counters are bit-identical for any -parallel value; the
	// wall_sec/alloc_bytes measurements are not part of that contract.
	Phases []stats.PassStats `json:"phases,omitempty"`

	// Error is set when a phase failed: the report then holds the results
	// of every phase completed before the failure.
	Error string `json:"error,omitempty"`

	Table1    []Table1Row   `json:"table1,omitempty"`
	Fig10     []LevelRows   `json:"fig10,omitempty"`
	Fig11     []StaticRow   `json:"fig11,omitempty"`
	Ablations []AblationRow `json:"ablations,omitempty"`
}

// AddPhase appends a driver-phase timing.
func (r *Report) AddPhase(name string, start time.Time) {
	r.DriverPhases = append(r.DriverPhases, PhaseTime{Name: name, Seconds: time.Since(start).Seconds()})
}

// WriteFailure records err on the report and writes the partial report
// to path: every phase completed before the failure is preserved, with
// the failure itself in the "error" field. It is the -json rendering of
// a phase failure in cmd/usher-bench.
func (r *Report) WriteFailure(path string, err error) error {
	r.Error = err.Error()
	return r.WriteJSON(path)
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	return WriteJSONFile(path, r)
}
