// Command usherc compiles, analyzes and runs MiniC programs under the
// Usher instrumentation configurations, or prints the pipeline's
// intermediate artifacts.
//
// Usage:
//
//	usherc [flags] file.c [more.c ...]
//
// -dump takes a comma-separated list of src (the MiniC source, flattened
// for a multi-file build), ir (the SSA IR at -level), pts (the points-to
// sets of pointer operands), memssa (the mu/chi annotations), vfg (the
// full value-flow graph with each node's definedness) and dot (the same
// graph as Graphviz DOT), prints them in that order and exits. One kind
// prints nothing else; several each get a header.
//
// With more than one file, each file is a module named after its base
// name (extension stripped) and may reference the others with
// `#include "name"`; the set is compiled per-module in dependency
// order and linked into one program before analysis (see
// internal/module).
//
// Examples:
//
//	usherc prog.c                         # analyze with Usher, run, report
//	usherc -config msan prog.c            # full instrumentation instead
//	usherc -compare prog.c                # all five configurations side by side
//	usherc -level O2 -dump ir prog.c      # optimize and print the IR
//	usherc -dump vfg prog.c               # the value-flow graph and Γ
//	usherc -dump dot prog.c | dot -Tsvg   # the same graph, drawn
//	usherc main.c lib.c util.c            # multi-file module build
//	usherc -workload parser               # use a generated benchmark as input
//	usherc -stats prog.c                  # per-pipeline-pass timings and counters
//
// A run that records shadow violations — reads of shadow state the plan
// never wrote, which make the plan's clean report untrustworthy —
// prints each one and makes usherc exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/workload"
)

func main() {
	configName := flag.String("config", "usher", "configuration: msan, tl, tlat, opti, usher, optiii, or a plan name such as UsherTL+AT")
	levelName := flag.String("level", "O0+IM", "optimization level: O0, O0+IM, O1, O2")
	compare := flag.Bool("compare", false, "run every configuration and compare")
	dumpList := flag.String("dump", "", "print artifacts and exit: a comma-separated list of "+dumpKinds)
	noRun := flag.Bool("no-run", false, "analyze only; print static statistics")
	workloadName := flag.String("workload", "", "use a generated benchmark instead of a file")
	showStats := flag.Bool("stats", false, "print per-pipeline-pass stats (wall time, allocs, work counters)")
	pf := bench.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()
	dump, err := parseDump(*dumpList)
	if err != nil {
		fatal(err)
	}
	// Only the source needs no compiled program.
	srcOnly := len(dump) == 1 && dump["src"]

	// Registered first so that it runs last, after the deferred stats
	// report and profile writers.
	violated := false
	defer func() {
		if violated {
			os.Exit(1)
		}
	}()

	stopProfiles, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "usherc: profiles:", err)
		}
	}()

	var sc *stats.Collector
	if *showStats {
		sc = stats.New()
		defer func() {
			fmt.Println("=== pipeline pass stats ===")
			stats.Write(os.Stdout, sc.Snapshot())
		}()
	}

	var prog *ir.Program
	if *workloadName == "" && len(flag.Args()) > 1 {
		// Multi-file module build: every argument is a module named
		// after its base name, resolved via #include "name".
		files, err := readModuleFiles(flag.Args())
		if err != nil {
			fatal(err)
		}
		if dump["src"] {
			flat, err := module.Flatten(files)
			if err != nil {
				fatal(err)
			}
			dump.section("src", "source", func() { fmt.Print(flat) })
			if srcOnly {
				return
			}
		}
		res, err := module.Build(files, module.Options{Stats: sc, Parallel: pool.DefaultParallelism()})
		if err != nil {
			fatal(err)
		}
		prog = res.Prog
	} else {
		src, file, err := inputSource(*workloadName, flag.Args())
		if err != nil {
			fatal(err)
		}
		dump.section("src", "source", func() { fmt.Print(src) })
		if srcOnly {
			return
		}
		prog, err = pipeline.Compile(file, src, sc)
		if err != nil {
			fatal(err)
		}
	}
	level, err := passes.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	if err := pipeline.ApplyLevel(prog, level, sc); err != nil {
		fatal(err)
	}
	if len(dump) > 0 {
		if err := dump.program(prog, level, sc); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		violated = compareConfigs(prog, sc)
		return
	}
	cfg, err := usher.ParseConfig(*configName)
	if err != nil {
		fatal(err)
	}
	an, err := usher.NewSessionObserved(prog, sc).Analyze(cfg)
	if err != nil {
		fatal(err)
	}
	st := an.StaticStats()
	fmt.Printf("%s: %d static shadow propagations, %d static checks", cfg, st.Props, st.Checks)
	if an.MFCsSimplified > 0 || an.Redirected > 0 {
		fmt.Printf(" (Opt I simplified %d MFCs, Opt II redirected %d nodes)", an.MFCsSimplified, an.Redirected)
	}
	fmt.Println()
	if *noRun {
		return
	}
	res, err := an.Run(usher.RunOptions{})
	reportRun(res, cfg)
	if err != nil {
		fatal(err)
	}
	violated = len(res.ShadowViolations) > 0
}

// readModuleFiles loads each path as one module whose name is the base
// name with the extension stripped ("src/lib_a.c" -> "lib_a"), the name
// other modules use in #include directives.
func readModuleFiles(paths []string) ([]module.File, error) {
	files := make([]module.File, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(p)
		files[i] = module.File{
			Name:   strings.TrimSuffix(base, filepath.Ext(base)),
			Source: string(data),
		}
	}
	return files, nil
}

func inputSource(workloadName string, args []string) (src, file string, err error) {
	if workloadName != "" {
		p, ok := workload.ByName(workloadName)
		if !ok {
			return "", "", fmt.Errorf("unknown workload %q", workloadName)
		}
		return workload.Generate(p), p.Name + ".c", nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: usherc [flags] file.c [more.c ...] (or -workload name)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}

func reportRun(res *interp.Result, cfg usher.Config) {
	if res == nil {
		return
	}
	for _, v := range res.Out {
		fmt.Printf("output: %d\n", v)
	}
	fmt.Printf("exit: %s, %d native ops, %d shadow propagations, %d checks (overhead %.0f%%)\n",
		res.Exit, res.Steps, res.ShadowProps, res.ShadowChecks, bench.Overhead(res))
	if len(res.ShadowWarnings) == 0 {
		fmt.Printf("%s: no uses of undefined values detected\n", cfg)
	} else {
		fmt.Printf("%s: %d uses of undefined values:\n", cfg, len(res.ShadowWarnings))
		for _, w := range res.ShadowWarnings {
			fmt.Printf("  %s\n", w)
		}
	}
	reportViolations(res, cfg)
}

// reportViolations prints the run's shadow violations, if any.
func reportViolations(res *interp.Result, cfg usher.Config) {
	if len(res.ShadowViolations) == 0 {
		return
	}
	fmt.Printf("%s: %d shadow violations (the plan read shadow state it never wrote):\n", cfg, len(res.ShadowViolations))
	for _, v := range res.ShadowViolations {
		fmt.Printf("  %s\n", v)
	}
}

// compareConfigs prints every configuration's figures side by side,
// then the violations of the runs that recorded any. It reports whether
// one did.
func compareConfigs(prog *ir.Program, sc *stats.Collector) bool {
	native, err := usher.RunNative(prog, usher.RunOptions{})
	if err != nil {
		fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tstatic-props\tstatic-checks\tdyn-props\tdyn-checks\toverhead%\twarnings\tviolations")
	s := usher.NewSessionObserved(prog, sc)
	var runs []*interp.Result
	for _, cfg := range usher.Configs {
		an, err := s.Analyze(cfg)
		if err != nil {
			fatal(err)
		}
		st := an.StaticStats()
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			fatal(err)
		}
		runs = append(runs, res)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.0f\t%d\t%d\n",
			cfg, st.Props, st.Checks, res.ShadowProps, res.ShadowChecks,
			bench.Overhead(res), len(res.ShadowWarnings), len(res.ShadowViolations))
	}
	fmt.Fprintf(tw, "native\t-\t-\t-\t-\t0\t%d (oracle)\t-\n", len(native.OracleWarnings))
	tw.Flush()
	violated := false
	for i, res := range runs {
		reportViolations(res, usher.Configs[i])
		violated = violated || len(res.ShadowViolations) > 0
	}
	return violated
}

// fatal renders err on stderr and exits non-zero. Structured diagnostics
// (see internal/diag) are printed one per line in source order.
func fatal(err error) {
	if ds := diag.All(err); len(ds) > 0 {
		for _, d := range ds {
			fmt.Fprintln(os.Stderr, "usherc:", d)
		}
	} else {
		fmt.Fprintln(os.Stderr, "usherc:", err)
	}
	os.Exit(1)
}
