package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/stats"
)

// CommonFlags is the CLI plumbing shared by usher-bench and
// usher-difftest: the worker bound, the JSON report path, per-pass
// observability and profiling. Centralizing it
// here keeps the binaries' flag semantics (and the report schema they
// write) from drifting apart.
type CommonFlags struct {
	// Parallel bounds the worker pool (see pool.ForEach).
	Parallel int
	// JSONPath is the -json report destination ("" = no report).
	JSONPath string
	// Stats records whether -stats was requested.
	Stats bool
	// Profile holds the -cpuprofile/-memprofile destinations.
	Profile *ProfileFlags

	sc *stats.Collector
}

// RegisterCommonFlags registers -parallel, -json, -stats, -cpuprofile
// and -memprofile on fs with the shared defaults and help text.
func RegisterCommonFlags(fs *flag.FlagSet) *CommonFlags {
	cf := &CommonFlags{Profile: RegisterProfileFlags(fs)}
	fs.IntVar(&cf.Parallel, "parallel", pool.DefaultParallelism(),
		"max concurrent workers (results are identical for any value)")
	fs.StringVar(&cf.JSONPath, "json", "", "write a machine-readable report to this path")
	fs.BoolVar(&cf.Stats, "stats", false,
		"collect and print per-pass pipeline stats (wall time, allocs, work counters)")
	return cf
}

// Validate rejects flag values the pools would silently misinterpret:
// pool.ForEach treats parallel <= 1 as "sequential", so a mistyped
// "-parallel -4" or "-parallel 0" would not fail, it would quietly
// serialize a benchmark run. Call after flag parsing, before any work;
// every binary sharing these flags applies the same rule.
func (cf *CommonFlags) Validate() error {
	if cf.Parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1 worker, got %d", cf.Parallel)
	}
	return nil
}

// ProfileFlags is the -cpuprofile/-memprofile pair every driver binary
// offers, so solver and pipeline hot spots can be attributed with the
// standard pprof toolchain.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
}

// RegisterProfileFlags registers -cpuprofile and -memprofile on fs.
// Binaries that do not take the full CommonFlags set (usherc, usherd,
// vfg-dump) call this directly.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	pf := &ProfileFlags{}
	fs.StringVar(&pf.CPUProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&pf.MemProfile, "memprofile", "", "write a heap profile to this path on exit")
	return pf
}

// Start begins CPU profiling when -cpuprofile was given. The returned
// stop function finishes the CPU profile and writes the -memprofile
// heap snapshot; call it exactly once on every exit path that should
// produce profiles (defer in main).
func (pf *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if pf.CPUProfile != "" {
		cpuFile, err = os.Create(pf.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("bench: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("bench: -cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if pf.MemProfile != "" {
			f, err := os.Create(pf.MemProfile)
			if err != nil {
				return fmt.Errorf("bench: -memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("bench: -memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Collector returns the collector to thread through the run: a live one
// when -stats was given, nil (record nothing) otherwise. The same
// collector is returned on every call.
func (cf *CommonFlags) Collector() *stats.Collector {
	if !cf.Stats {
		return nil
	}
	if cf.sc == nil {
		cf.sc = stats.New()
	}
	return cf.sc
}

// WriteJSONFile writes v as indented JSON to path with a trailing
// newline, the report format both drivers use.
func WriteJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
