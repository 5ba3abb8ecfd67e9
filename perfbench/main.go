// Command perfbench is the repository's benchmark: it runs one named
// workload against the usher pipeline and the usherd daemon, checks every
// operation's output, and prints the workload's metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {"op_p50_ms": {"value": 742.1, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, with -trace 1 the
// per-layer metrics, taken from spans recorded around every call into a
// layer (written to perfbench/out/); every workload reports all of them. The compare subcommand
// reads two sets of saved runs and reports, per workload and metric, each
// set's median and quartiles and whether the medians differ by more than
// the metric's bound in BENCHMARK.json.
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every workload's inputs to a few small programs; the
	// benchmark's own tests use it.
	smoke  bool
	usherd string
	outDir string
}

// runner runs one workload for opts and returns its result. Operation
// failures are counted in the result; an error means the run itself
// could not complete (no inputs, no daemon).
type runner func(opts options, log *os.File) (*result, error)

var workloads = map[string]runner{
	"paper-suite": runPaperSuite,
	"big-graphs":  runBigGraphs,
	"daemon-mix":  runDaemonMix,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: paper-suite, big-graphs or daemon-mix")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&opts.seconds, "seconds", 30, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&opts.usherd, "usherd", "", "path of the usherd binary (daemon-mix)")
	flag.StringVar(&opts.outDir, "out", filepath.Join("perfbench", "out"), "directory for trace files")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if args[0] != "compare" || len(args) != 3 {
			fatalf("usage: perfbench compare <set-A-dir> <set-B-dir>")
		}
		if err := compare(os.Stdout, args[1], args[2]); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	run, ok := workloads[opts.workload]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	opts.trace = trace == 1
	if opts.seconds <= 0 {
		fatalf("-seconds must be positive, got %v", opts.seconds)
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fatalf("%s: %v", opts.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// ops counts operations and keeps the first few failure messages.
type ops struct {
	attempted, failed int
	messages          []string
}

// record counts one operation; it failed if any check message is given.
func (o *ops) record(name string, failures []string) {
	o.attempted++
	if len(failures) == 0 {
		return
	}
	o.failed++
	for _, f := range failures {
		if len(o.messages) < 20 {
			o.messages = append(o.messages, name+": "+f)
		}
	}
}

// finish prints the failures to log and builds the result.
func (o *ops) finish(log *os.File, metrics map[string]metric) *result {
	for _, m := range o.messages {
		fmt.Fprintln(log, "FAILED", m)
	}
	return &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
}

// moreRounds reports whether a run that has measured for measured
// seconds over rounds whole rounds starts another: always a first one,
// then as long as a round of the mean length so far still ends within
// the run's seconds.
func moreRounds(measured float64, rounds int, seconds float64) bool {
	return rounds == 0 || measured+measured/float64(rounds) <= seconds
}
