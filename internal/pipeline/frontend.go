package pipeline

import (
	"runtime"
	"time"

	"github.com/valueflow/usher/internal/ast"
	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/lower"
	"github.com/valueflow/usher/internal/parser"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/ssa"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/types"
)

// ObservePass times one eagerly-run pass and records it into sc. The
// frontend passes run in sequence (no artifact store — each consumes its
// predecessor's output directly), but they report through the same
// registry and collector as the analysis passes. Multi-file builds
// (package module) run the frontend once per module with the module
// name as the variant, so `-stats` shows exactly which modules an
// incremental build recompiled.
func ObservePass(sc *stats.Collector, pass, variant string, fn func() (map[string]int64, error)) error {
	if !sc.Enabled() {
		_, err := fn()
		return err
	}
	p, rank := ByName(pass)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	counters, err := fn()
	wall := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	sc.Add(stats.Sample{
		Rank: rank, Pass: p.Name, Phase: string(p.Phase), Variant: variant,
		Wall: wall, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Counters: counters,
	})
	return err
}

// ParseSource runs the parse pass over one source file, observed into sc
// under the given variant (the module name for multi-file builds, ""
// for single-file compilation).
func ParseSource(file, src, variant string, sc *stats.Collector) (*ast.Program, error) {
	var astProg *ast.Program
	err := ObservePass(sc, "parse", variant, func() (map[string]int64, error) {
		var perr error
		astProg, perr = parser.Parse(file, src)
		return nil, perr
	})
	if err != nil {
		return nil, err
	}
	return astProg, nil
}

// CompileUnit runs typecheck, lower, mem2reg and verify over one parsed
// translation unit, producing SSA-form IR at the O0 baseline. The
// variant tags each recorded pass (module name for multi-file builds).
func CompileUnit(astProg *ast.Program, variant string, sc *stats.Collector) (*ir.Program, error) {
	var info *types.Info
	if err := ObservePass(sc, "typecheck", variant, func() (map[string]int64, error) {
		var terr error
		info, terr = types.Check(astProg)
		return nil, terr
	}); err != nil {
		return nil, err
	}

	var irp *ir.Program
	if err := ObservePass(sc, "lower", variant, func() (map[string]int64, error) {
		var lerr error
		irp, lerr = lower.Lower(astProg, info)
		if lerr != nil {
			return nil, lerr
		}
		funcs, instrs := 0, 0
		for _, fn := range irp.Funcs {
			if !fn.HasBody {
				continue
			}
			funcs++
			for _, b := range fn.Blocks {
				instrs += len(b.Instrs)
			}
		}
		return map[string]int64{"funcs": int64(funcs), "instrs": int64(instrs)}, nil
	}); err != nil {
		return nil, err
	}

	if err := ObservePass(sc, "mem2reg", variant, func() (map[string]int64, error) {
		promoted := ssa.Promote(irp)
		for _, fn := range irp.Funcs {
			ir.ComputeCFG(fn)
		}
		return map[string]int64{"promoted": int64(promoted)}, nil
	}); err != nil {
		return nil, err
	}

	if err := ObservePass(sc, "verify", variant, func() (map[string]int64, error) {
		var diags diag.List
		if verr := ir.Verify(irp); verr != nil {
			diags.Merge(diag.PhaseVerify, verr)
		} else if verr := ssa.VerifySSA(irp); verr != nil {
			diags.Merge(diag.PhaseVerify, verr)
		}
		return nil, diags.Err()
	}); err != nil {
		return nil, err
	}
	return irp, nil
}

// Compile runs the frontend passes — parse, typecheck, lower, mem2reg,
// verify — producing SSA-form IR (the paper's O0 baseline; apply further
// levels with ApplyLevel). It is the implementation behind
// usher.Compile, with each stage observed into sc (nil records nothing).
//
// Compile never panics on malformed input: every frontend problem is
// reported as positioned diagnostics (see package diag), and an
// unexpected panic below — an internal invariant violation — is
// converted into an internal-error diagnostic at this boundary.
func Compile(file, src string, sc *stats.Collector) (_ *ir.Program, err error) {
	defer diag.Guard(diag.PhaseInternal, &err)

	astProg, err := ParseSource(file, src, "", sc)
	if err != nil {
		return nil, err
	}
	return CompileUnit(astProg, "", sc)
}

// ApplyLevel runs the scalar-optimization pipeline for the level, in
// place, recorded as the "scalar" pass (variant: the level name).
func ApplyLevel(prog *ir.Program, level passes.Level, sc *stats.Collector) error {
	return ObservePass(sc, "scalar", level.String(), func() (map[string]int64, error) {
		return nil, passes.Apply(prog, level)
	})
}
