// Package usher is a from-scratch reproduction of "Accelerating Dynamic
// Detection of Uses of Undefined Values with Static Value-Flow Analysis"
// (Ye, Sui, Xue; CGO 2014).
//
// The package compiles MiniC (a C subset) to an SSA IR, runs the Usher
// static value-flow analysis to decide which shadow propagations and
// definedness checks a dynamic detector actually needs, and executes
// programs under the resulting instrumentation plans, counting the
// dynamic shadow work that full (MSan-style) instrumentation would have
// performed and Usher avoids.
//
// Typical use:
//
//	prog, err := usher.Compile("prog.c", src)
//	an, err := usher.Analyze(prog, usher.ConfigUsherFull)
//	res, err := an.Run(usher.RunOptions{})
//	// res.ShadowWarnings: detected uses of undefined values
//	// res.ShadowProps/ShadowChecks: dynamic instrumentation cost
package usher

import (
	"fmt"
	"strings"

	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
)

// Config selects an instrumentation configuration (§4.5 of the paper).
type Config int

// The five configurations evaluated in the paper.
const (
	// ConfigMSan is full instrumentation: every statement shadowed, every
	// critical operation checked.
	ConfigMSan Config = iota
	// ConfigUsherTL analyzes top-level variables only (no Opt I/II);
	// memory stays fully instrumented.
	ConfigUsherTL
	// ConfigUsherTLAT adds address-taken variables to the value-flow
	// analysis.
	ConfigUsherTLAT
	// ConfigUsherOptI adds Opt I (value-flow simplification).
	ConfigUsherOptI
	// ConfigUsherFull adds Opt II (redundant check elimination): the
	// paper's "Usher".
	ConfigUsherFull
	// ConfigUsherOptIII extends the paper's Usher with dominated
	// same-value check elimination, a new VFG-based optimization in the
	// direction of the paper's future work (§6).
	ConfigUsherOptIII
)

// configSpec is one row of the config-capabilities table: the
// pipeline-level plan specification (graph flavor, optimizations, memory
// treatment) plus whether the configuration extends the paper's set.
type configSpec struct {
	plan     pipeline.PlanSpec
	extended bool
}

// configTable is the single source of truth for configuration dispatch.
// Session.Analyze, Config.String, Configs/ExtendedConfigs and difftest's
// per-config soundness contract (Config.ElidesChecks) all read this table;
// there are deliberately no ordering comparisons (`cfg >= ...`) anywhere
// else.
var configTable = [...]configSpec{
	ConfigMSan:      {plan: pipeline.PlanSpec{Name: "MSan", Full: true}},
	ConfigUsherTL:   {plan: pipeline.PlanSpec{Name: "UsherTL", TopLevelOnly: true, MemoryFull: true}},
	ConfigUsherTLAT: {plan: pipeline.PlanSpec{Name: "UsherTL+AT"}},
	ConfigUsherOptI: {plan: pipeline.PlanSpec{Name: "UsherOptI", OptI: true}},
	ConfigUsherFull: {plan: pipeline.PlanSpec{Name: "Usher", OptI: true, OptII: true}},
	ConfigUsherOptIII: {
		plan:     pipeline.PlanSpec{Name: "Usher+OptIII", OptI: true, OptII: true, OptIII: true},
		extended: true,
	},
}

// Configs lists the paper's five configurations in evaluation order.
var Configs []Config

// ExtendedConfigs additionally includes the Opt III extension.
var ExtendedConfigs []Config

func init() {
	for c := range configTable {
		if !configTable[c].extended {
			Configs = append(Configs, Config(c))
		}
		ExtendedConfigs = append(ExtendedConfigs, Config(c))
	}
}

// spec returns the configuration's capability row, or an error for a
// Config value outside the table.
func (c Config) spec() (configSpec, error) {
	if c < 0 || int(c) >= len(configTable) {
		return configSpec{}, fmt.Errorf("usher: unknown configuration %s", c)
	}
	return configTable[c], nil
}

func (c Config) String() string {
	if c >= 0 && int(c) < len(configTable) {
		return configTable[c].plan.Name
	}
	return fmt.Sprintf("Config(%d)", int(c))
}

// ParseConfig resolves a configuration name: a plan name as String
// prints it ("Usher", "UsherTL+AT", ...) or a short alias (msan, tl,
// tlat, opti, usher, optiii), in any case.
func ParseConfig(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "msan", "full":
		return ConfigMSan, nil
	case "tl":
		return ConfigUsherTL, nil
	case "tlat", "tl+at":
		return ConfigUsherTLAT, nil
	case "opti":
		return ConfigUsherOptI, nil
	case "usher":
		return ConfigUsherFull, nil
	case "optiii", "opt3", "usher3":
		return ConfigUsherOptIII, nil
	}
	for _, c := range ExtendedConfigs {
		if strings.EqualFold(c.String(), name) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown config %q (want a plan name like Usher, or msan/tl/tlat/opti/usher/optiii)", name)
}

// TopLevelOnly reports whether the configuration analyzes top-level
// variables only (the Usher_TL graph).
func (c Config) TopLevelOnly() bool {
	s, err := c.spec()
	return err == nil && s.plan.TopLevelOnly
}

// ElidesChecks reports whether the configuration may elide definedness
// checks that an exact configuration would emit (Opt II redundant check
// elimination or Opt III dominated-check elimination). Difftest's
// soundness contract keys off this: eliding configurations may drop
// dominated duplicate warnings but never all reports.
func (c Config) ElidesChecks() bool {
	s, err := c.spec()
	return err == nil && (s.plan.OptII || s.plan.OptIII)
}

// Compile parses, type-checks and lowers MiniC source into SSA-form IR
// (the O0+IM pipeline without inlining; see package passes for the
// inlining step and the O1/O2 pipelines). Malformed input is reported as
// positioned diagnostics (see package diag), never as a panic.
func Compile(file, src string) (*ir.Program, error) {
	return pipeline.Compile(file, src, nil)
}

// MustCompile is Compile for known-good sources; it panics on error.
func MustCompile(file, src string) *ir.Program {
	irp, err := Compile(file, src)
	diag.MustNil("compile "+file, err)
	return irp
}

// Analysis bundles everything the analysis produced for one program under
// one configuration.
type Analysis struct {
	Config  Config
	Prog    *ir.Program
	Pointer *pointer.Result
	Mem     *memssa.Info
	Graph   *vfg.Graph
	Gamma   *vfg.Gamma
	Plan    *instrument.Plan
	// MFCsSimplified, Redirected and ChecksElided are the Opt I / Opt II /
	// Opt III statistics (zero for configurations that do not run them).
	MFCsSimplified int
	Redirected     int
	ChecksElided   int
}

// Analyze runs the full static pipeline for the chosen configuration.
// To analyze the same program under several configurations, create a
// Session and call its Analyze method instead: the session computes the
// config-invariant artifacts (pointer analysis, memory SSA, VFG, Γ) once
// and shares them, which is several times faster and produces identical
// results.
//
// Analyze never panics: an internal invariant violation inside any
// analysis stage is returned as an error (see package diag).
func Analyze(prog *ir.Program, cfg Config) (*Analysis, error) {
	return NewSession(prog).Analyze(cfg)
}

// MustAnalyze is Analyze for programs known to analyze cleanly; it
// panics on error (a caller contract violation, see package diag).
func MustAnalyze(prog *ir.Program, cfg Config) *Analysis {
	return NewSession(prog).MustAnalyze(cfg)
}

// RunOptions configures an instrumented execution.
type RunOptions struct {
	// Args are main's arguments (all treated as defined).
	Args []int64
	// MaxSteps bounds execution (0 = default).
	MaxSteps int64
	// Input supplies values for the input() builtin.
	Input func(i int) int64
}

func (o RunOptions) interpOptions() (interp.Options, []interp.Value) {
	var args []interp.Value
	for _, a := range o.Args {
		args = append(args, interp.IntVal(a))
	}
	return interp.Options{MaxSteps: o.MaxSteps, Input: o.Input}, args
}

// Run executes the program under the analysis' instrumentation plan.
func (a *Analysis) Run(opts RunOptions) (*interp.Result, error) {
	io, args := opts.interpOptions()
	io.Shadow = &interp.ShadowConfig{Plan: a.Plan}
	return interp.Run(a.Prog, "main", args, io)
}

// RunNative executes the program without any instrumentation (the
// slowdown baseline). The result still carries the ground-truth oracle
// warnings.
func RunNative(prog *ir.Program, opts RunOptions) (*interp.Result, error) {
	io, args := opts.interpOptions()
	return interp.Run(prog, "main", args, io)
}

// StaticStats returns the plan's static propagation/check counts (the
// quantities of Figure 11).
func (a *Analysis) StaticStats() instrument.Stats { return a.Plan.StaticStats() }
