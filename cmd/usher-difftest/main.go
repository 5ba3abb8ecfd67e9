// Command usher-difftest runs the differential soundness oracle over a
// range of randprog seeds: every generated program is compiled once and
// executed under all instrumentation configurations, with the canonical
// warning sets cross-checked against the uninstrumented ground truth
// (see internal/difftest for the per-configuration contract).
//
// Usage:
//
//	usher-difftest [-seeds N] [-from S] [-parallel P] [-json path] [-stats]
//	               [-mutate] [-mutants-per-seed N]
//	               [-repro-dir dir] [-minimize=false]
//	               [-cpuprofile path] [-memprofile path]
//
// Seeds are swept on -parallel workers; the findings and the -json
// report are bit-identical for any worker count. With -mutate, the
// sweep becomes the sanitizer-vs-sanitizer campaign: each generated
// program is perturbed by up to -mutants-per-seed semantic mutations
// (drop-memset, shrink-copy-length, reorder-struct-assign,
// route-through-varargs) and every mutant is replayed under every
// configuration against the mutant's own interpreter ground truth.
// Each diverging program is delta-debugged down to a minimal
// reproducer (unless -minimize=false), printed, and written to
// -repro-dir as seed<N>.c (seed<N>m<I>.c for mutants) when the flag is
// set.
// -stats aggregates per-pipeline-pass observations over the whole sweep,
// prints them, and adds them to the report's "phases" section; the
// counters (not the timings) keep the bit-identical guarantee.
//
// Exit status: 0 when every seed agrees, 1 when any seed diverges, 2 on
// infrastructure failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/difftest"
	"github.com/valueflow/usher/internal/stats"
)

func main() {
	seeds := flag.Int64("seeds", 1000, "number of randprog seeds to check")
	from := flag.Int64("from", 0, "first seed of the range")
	reproDir := flag.String("repro-dir", "", "write each minimized reproducer to this directory")
	minimize := flag.Bool("minimize", true, "delta-debug diverging programs to minimal repros")
	mutate := flag.Bool("mutate", false,
		"sanitizer-vs-sanitizer mode: replay semantic mutants of every seed instead of the seeds themselves")
	mutantsPerSeed := flag.Int("mutants-per-seed", 8,
		"with -mutate, max mutants replayed per seed (0 = every applicable mutation)")
	cf := bench.RegisterCommonFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "usher-difftest:", err)
		os.Exit(2)
	}
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	stopProfiles, err := cf.Profile.Start()
	if err != nil {
		fail(err)
	}
	// flushProfiles runs before every exit path (the divergence path
	// leaves through os.Exit, which skips defers).
	flushProfiles := func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "usher-difftest: profiles:", err)
		}
	}

	copts := difftest.CampaignOptions{
		From:     *from,
		Seeds:    *seeds,
		Parallel: cf.Parallel,
		Minimize: *minimize,
		Stats:    cf.Collector(),
	}
	var report *difftest.Report
	if *mutate {
		report, err = difftest.MutationCampaign(difftest.MutationCampaignOptions{
			CampaignOptions: copts,
			MutantsPerSeed:  *mutantsPerSeed,
		})
	} else {
		report, err = difftest.Campaign(copts)
	}
	if err != nil {
		fail(err)
	}

	if *mutate {
		fmt.Printf("usher-difftest: %d mutant(s) of %d seed(s) [%d, %d) under %d configuration(s): %d divergent\n",
			report.Mutants, report.Checked, *from, *from+*seeds, len(report.Configs), report.Divergent)
	} else {
		fmt.Printf("usher-difftest: %d seed(s) [%d, %d) under %d configuration(s): %d divergent\n",
			report.Checked, *from, *from+*seeds, len(report.Configs), report.Divergent)
	}
	for i, f := range report.Findings {
		if f.Mutation != "" {
			fmt.Printf("\nseed %d (mutation %s): %v\n", f.Seed, f.Mutation, f.Divergence)
		} else {
			fmt.Printf("\nseed %d: %v\n", f.Seed, f.Divergence)
		}
		src, stmts := f.Source, f.Stmts
		if f.Minimized != "" {
			fmt.Printf("minimized %d -> %d statement(s):\n", f.Stmts, f.MinStmts)
			src, stmts = f.Minimized, f.MinStmts
		} else {
			fmt.Printf("%d statement(s):\n", stmts)
		}
		fmt.Print(src)
		if *reproDir != "" {
			if err := os.MkdirAll(*reproDir, 0o755); err != nil {
				fail(err)
			}
			name := fmt.Sprintf("seed%d.c", f.Seed)
			header := fmt.Sprintf("// usher-difftest reproducer: seed %d, %v\n", f.Seed, f.Divergence)
			if f.Mutation != "" {
				name = fmt.Sprintf("seed%dm%d.c", f.Seed, i)
				header = fmt.Sprintf("// usher-difftest reproducer: seed %d, mutation %s, %v\n",
					f.Seed, f.Mutation, f.Divergence)
			}
			path := filepath.Join(*reproDir, name)
			if err := os.WriteFile(path, []byte(header+src), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	if cf.Stats {
		fmt.Println("\n=== Pipeline pass stats (aggregated over all checked seeds) ===")
		stats.Write(os.Stdout, report.Phases)
	}

	if cf.JSONPath != "" {
		if err := report.WriteJSON(cf.JSONPath); err != nil {
			fail(err)
		}
		fmt.Printf("wrote JSON report to %s\n", cf.JSONPath)
	}
	flushProfiles()
	if report.Divergent > 0 {
		os.Exit(1)
	}
}
