// Command usher-bench regenerates the tables and figures of the paper's
// evaluation over the synthetic SPEC2000 stand-in suite.
//
// Usage:
//
//	usher-bench [-table1] [-fig10] [-fig11] [-opt-levels] [-ablations] [-all]
//	            [-parallel N] [-json path] [-stats]
//	            [-cpuprofile path] [-memprofile path]
//
// Throughput and latency of the whole system are measured by perfbench,
// not here.
//
// With no selection flags, -all is assumed. Work is spread over -parallel
// workers (default: one per CPU) at two levels — across workload profiles
// and across configurations within a profile — with per-profile analysis
// sessions sharing the config-invariant artifacts; every reported number
// is identical to a -parallel 1 run. -json additionally writes the full
// results, per-phase wall-clock and machine info to the given path.
// -stats collects per-pipeline-pass observations (wall time, allocations,
// work counters) aggregated over every analyzed program, prints them, and
// adds them to the JSON report's "phases" section; the counters (not the
// timings) are covered by the bit-identical-under--parallel guarantee.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/workload"
)

func main() {
	table1 := flag.Bool("table1", false, "benchmark statistics under O0+IM (Table 1)")
	fig10 := flag.Bool("fig10", false, "execution-time slowdowns under O0+IM (Figure 10)")
	fig11 := flag.Bool("fig11", false, "static instrumentation counts (Figure 11)")
	optLevels := flag.Bool("opt-levels", false, "slowdowns under O1 and O2 (Section 4.6)")
	ablations := flag.Bool("ablations", false, "design-choice ablation study")
	all := flag.Bool("all", false, "everything")
	cf := bench.RegisterCommonFlags(flag.CommandLine)
	flag.Parse()
	if err := cf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "usher-bench:", err)
		os.Exit(2)
	}

	sc := cf.Collector()
	stopProfiles, err := cf.Profile.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "usher-bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "usher-bench: profiles:", err)
		}
	}()

	if !*table1 && !*fig10 && !*fig11 && !*optLevels && !*ablations {
		*all = true
	}
	report := &bench.Report{
		SchemaVersion: bench.SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Parallel:      cf.Parallel,
	}
	// fail writes the partial report before exiting, so a late-phase
	// failure does not discard the completed phases: the JSON carries
	// everything finished so far plus an "error" field.
	fail := func(err error) {
		if cf.JSONPath != "" {
			report.Phases = sc.Snapshot()
			if werr := report.WriteFailure(cf.JSONPath, err); werr != nil {
				fmt.Fprintln(os.Stderr, "usher-bench: writing partial report:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "usher-bench: wrote partial JSON results to %s\n", cf.JSONPath)
			}
		}
		fmt.Fprintln(os.Stderr, "usher-bench:", err)
		os.Exit(1)
	}

	if *all || *table1 {
		fmt.Println("=== Table 1: benchmark statistics under O0+IM ===")
		start := time.Now()
		rows, err := bench.Table1(cf.Parallel, sc)
		if err != nil {
			fail(err)
		}
		report.AddPhase("table1", start)
		report.Table1 = rows
		bench.WriteTable1(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *fig10 {
		fmt.Println("=== Figure 10: execution-time slowdowns (O0+IM) ===")
		start := time.Now()
		rows, err := bench.Fig10(workload.Profiles, passes.O0IM, cf.Parallel, sc)
		if err != nil {
			fail(err)
		}
		report.AddPhase("fig10", start)
		report.Fig10 = append(report.Fig10, bench.LevelRows{Level: passes.O0IM.String(), Rows: rows})
		bench.WriteFig10(os.Stdout, passes.O0IM, rows)
		fmt.Println()
	}
	if *all || *fig11 {
		fmt.Println("=== Figure 11: static instrumentation counts ===")
		start := time.Now()
		rows, err := bench.Fig11(cf.Parallel, sc)
		if err != nil {
			fail(err)
		}
		report.AddPhase("fig11", start)
		report.Fig11 = rows
		bench.WriteFig11(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *ablations {
		fmt.Println("=== Ablations: context sensitivity, semi-strong updates, heap cloning, node merging ===")
		start := time.Now()
		rows, err := bench.Ablations(workload.Profiles, cf.Parallel)
		if err != nil {
			fail(err)
		}
		report.AddPhase("ablations", start)
		report.Ablations = rows
		bench.WriteAblations(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *optLevels {
		for _, level := range []passes.Level{passes.O1, passes.O2} {
			fmt.Printf("=== Section 4.6: slowdowns under %s ===\n", level)
			start := time.Now()
			rows, err := bench.Fig10(workload.Profiles, level, cf.Parallel, sc)
			if err != nil {
				fail(err)
			}
			report.AddPhase("fig10-"+level.String(), start)
			report.Fig10 = append(report.Fig10, bench.LevelRows{Level: level.String(), Rows: rows})
			bench.WriteFig10(os.Stdout, level, rows)
			fmt.Println()
		}
	}

	if cf.Stats {
		report.Phases = sc.Snapshot()
		fmt.Println("=== Pipeline pass stats (aggregated over all analyzed programs) ===")
		stats.Write(os.Stdout, report.Phases)
		fmt.Println()
	}

	if cf.JSONPath != "" {
		if err := report.WriteJSON(cf.JSONPath); err != nil {
			fail(err)
		}
		fmt.Printf("wrote JSON results to %s\n", cf.JSONPath)
	}
}
