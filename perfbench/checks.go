package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
)

// Every check compares against what the generator planted or against a
// property the method must have (§3.4 of the paper), never against saved
// output. Each returns one message per violation; none means it passed.

// exactConfigs must report exactly the oracle's sites; elidingConfigs
// drop checks that other checks dominate (Opt II, Opt III), so they
// report a subset of the oracle's sites that is non-empty whenever the
// oracle is.
var (
	exactConfigs   = map[string]bool{"MSan": true, "UsherTL": true, "UsherTL+AT": true, "UsherOptI": true}
	elidingConfigs = map[string]bool{"Usher": true, "Usher+OptIII": true}
)

// checkOracle compares the interpreter's ground-truth warnings with the
// generator's truth: one site on line bugLine, or none when bugLine is 0.
func checkOracle(bugLine int, native *interp.Result) []string {
	ws := native.OracleWarnings
	switch {
	case bugLine == 0 && len(ws) != 0:
		return []string{fmt.Sprintf("oracle reports %d sites in a program with no planted bug (first %s)", len(ws), ws[0].Pos)}
	case bugLine != 0 && (len(ws) != 1 || ws[0].Pos.Line != bugLine):
		return []string{fmt.Sprintf("oracle reports %s, want the planted site on line %d", warningList(ws), bugLine)}
	}
	return nil
}

// checkInstrumentedRun checks one configuration's run against the native
// run: no shadow read the plan never wrote, the same exit value and
// printed output, and warnings that match the oracle's sites.
func checkInstrumentedRun(config string, native, run *interp.Result) []string {
	var out []string
	if len(run.ShadowViolations) > 0 {
		out = append(out, fmt.Sprintf("%s: %d shadow violations (first: %s)", config, len(run.ShadowViolations), run.ShadowViolations[0]))
	}
	if run.Exit.Kind != native.Exit.Kind || run.Exit.Int != native.Exit.Int {
		out = append(out, fmt.Sprintf("%s: exit %d, native exit %d", config, run.Exit.Int, native.Exit.Int))
	}
	if !equalInts(run.Out, native.Out) {
		out = append(out, fmt.Sprintf("%s: printed %v, native printed %v", config, clip(run.Out), clip(native.Out)))
	}
	oracle, shadow := native.OracleSites(), run.ShadowSites()
	switch {
	case exactConfigs[config]:
		if !equalSites(shadow, oracle) {
			out = append(out, fmt.Sprintf("%s: reports %s, oracle %s", config, siteList(shadow), siteList(oracle)))
		}
	case elidingConfigs[config]:
		if !subset(shadow, oracle) || (len(oracle) > 0 && len(shadow) == 0) {
			out = append(out, fmt.Sprintf("%s: reports %s, want a non-empty subset of the oracle's %s", config, siteList(shadow), siteList(oracle)))
		}
	default:
		out = append(out, fmt.Sprintf("unknown configuration %q", config))
	}
	return out
}

type site struct {
	fn    string
	label int
}

// checkSites returns the sites at which a plan checks definedness.
func checkSites(p *instrument.Plan) map[site]bool {
	out := make(map[site]bool)
	for fn, fp := range p.Fns {
		for label, items := range fp.Items {
			for _, it := range items {
				if it.Kind == instrument.CheckVal {
					out[site{fn.Name, label}] = true
				}
			}
		}
	}
	return out
}

// checkGuidedSubset checks that a guided plan checks no site that full
// instrumentation (MSan) leaves unchecked: value-flow guidance may only
// remove checks.
func checkGuidedSubset(config string, msan, guided *instrument.Plan) []string {
	full := checkSites(msan)
	var extra []string
	for s := range checkSites(guided) {
		if !full[s] {
			extra = append(extra, fmt.Sprintf("%s@%d", s.fn, s.label))
		}
	}
	if len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return []string{fmt.Sprintf("%s checks %d sites MSan does not check (first %s)", config, len(extra), extra[0])}
}

// callFact is a generated call-graph fact: each of the count functions
// named callerPrefix<i> calls, over all its calls together, exactly the
// targets functions named calleePrefix<j>.
type callFact struct {
	callerPrefix string
	count        int
	calleePrefix string
	targets      int
}

// checkCallFact checks a call-graph fact against the pointer analysis'
// resolved callees.
func checkCallFact(f callFact, prog *ir.Program, pa *pointer.Result) []string {
	want := make(map[string]bool, f.targets)
	for j := 0; j < f.targets; j++ {
		want[fmt.Sprintf("%s%d", f.calleePrefix, j)] = true
	}
	var out []string
	callers := 0
	for _, fn := range prog.Funcs {
		if !isNumbered(fn.Name, f.callerPrefix) {
			continue
		}
		callers++
		got := make(map[string]bool)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok && c.Builtin == ir.NotBuiltin {
					for _, callee := range pa.Callees(c) {
						got[callee.Name] = true
					}
				}
			}
		}
		if !equalNames(got, want) && len(out) < 3 {
			out = append(out, fmt.Sprintf("%s resolves to %d functions, want the %d %s* targets", fn.Name, len(got), f.targets, f.calleePrefix))
		}
	}
	if callers != f.count {
		out = append(out, fmt.Sprintf("%d %s* functions, want %d", callers, f.callerPrefix, f.count))
	}
	return out
}

// checkAllBottom checks that Γ marks every register defined in the
// functions named prefix<i> undefined: in resolve-xl every worker body
// folds the undefined value each call site passes in.
func checkAllBottom(variant string, prefix string, wantRegs int, prog *ir.Program, g *vfg.Graph, gm *vfg.Gamma) []string {
	regs, defined := 0, 0
	for _, fn := range prog.Funcs {
		if !isNumbered(fn.Name, prefix) {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				r := in.Defines()
				if r == nil {
					continue
				}
				regs++
				if gm.Of(g.RegNode(r)) != vfg.Bottom {
					defined++
				}
			}
		}
	}
	var out []string
	if regs != wantRegs {
		out = append(out, fmt.Sprintf("%s graph: %d %s* body registers, want %d", variant, regs, prefix, wantRegs))
	}
	if defined > 0 {
		out = append(out, fmt.Sprintf("%s graph: Γ marks %d of %d %s* body registers defined, want all undefined", variant, defined, regs, prefix))
	}
	return out
}

func isNumbered(name, prefix string) bool {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || rest == "" {
		return false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalSites(a, b map[interp.Site]bool) bool {
	return len(a) == len(b) && subset(a, b)
}

func subset(a, b map[interp.Site]bool) bool {
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

func equalNames(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

func siteList(s map[interp.Site]bool) string {
	var parts []string
	for x := range s {
		parts = append(parts, fmt.Sprintf("%s@%d", x.Fn, x.Label))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

func warningList(ws []interp.Warning) string {
	var parts []string
	for _, w := range ws {
		parts = append(parts, w.Pos.String())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func clip(xs []int64) []int64 {
	if len(xs) > 4 {
		return xs[:4]
	}
	return xs
}
