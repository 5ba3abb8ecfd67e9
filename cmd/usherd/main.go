// Command usherd is the long-running analysis daemon: an HTTP/JSON
// front end over the usher pipeline that caches analysis artifacts by a
// content hash of the submitted source, so repeated submissions reuse
// the pointer analysis, memory SSA, value-flow graph and instrumentation
// plans computed by earlier requests (see internal/service).
//
// Requests may submit either one "source" string or a multi-file
// "files" list of {name, source} modules linked by #include "name"
// directives; multi-file submissions additionally share a per-module
// unit cache (-module-cache-mb) keyed by transitive content hash, so a
// 1-line edit recompiles only the edited module and its dependents.
//
// Endpoints:
//
//	POST /analyze       analyze (and by default run) a MiniC program
//	GET  /stats         cache + request counters, per-pass aggregates
//	GET  /healthz       liveness probe
//	GET  /debug/pprof/  standard Go profiling
//
// Example:
//
//	usherd -addr :8080 -cache-mb 512 &
//	curl -d '{"source":"int main() { int x; print(x); return 0; }"}' \
//	    localhost:8080/analyze
//
// On SIGINT/SIGTERM the daemon drains in-flight requests and, with
// -json, writes its final /stats view to the given path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 256, "artifact cache budget in MiB (0 disables caching)")
	moduleCacheMB := flag.Int64("module-cache-mb", 64, "per-module unit cache budget in MiB for multi-file requests (0 disables)")
	maxBodyKB := flag.Int64("max-body-kb", 1024, "maximum /analyze request body in KiB")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (queueing + analysis + run)")
	maxSteps := flag.Int64("max-steps", 50_000_000, "dynamic-run instruction budget per request")
	parallel := flag.Int("parallel", pool.DefaultParallelism(), "max concurrently analyzing requests")
	jsonPath := flag.String("json", "", "write the final /stats view to this path on shutdown")
	pf := bench.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "usherd:", err)
		os.Exit(2)
	}
	if *parallel < 1 {
		fail(fmt.Errorf("-parallel must be at least 1 worker, got %d", *parallel))
	}
	if *cacheMB < 0 {
		fail(fmt.Errorf("-cache-mb must be non-negative, got %d", *cacheMB))
	}
	if *moduleCacheMB < 0 {
		fail(fmt.Errorf("-module-cache-mb must be non-negative, got %d", *moduleCacheMB))
	}

	stopProfiles, err := pf.Start()
	if err != nil {
		fail(err)
	}

	// In service.Options zero means "use the default" and negative means
	// "disabled"; the flags promise that 0 disables, so translate.
	disableZero := func(mb int64, shift uint) int64 {
		if mb == 0 {
			return -1
		}
		return mb << shift
	}
	srv := service.New(service.Options{
		CacheBytes:       disableZero(*cacheMB, 20),
		ModuleCacheBytes: disableZero(*moduleCacheMB, 20),
		MaxBodyBytes:     *maxBodyKB << 10,
		Timeout:          *timeout,
		Workers:          *parallel,
		MaxSteps:         *maxSteps,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "usherd: listening on %s (cache %d MiB, %d workers)\n",
		*addr, *cacheMB, *parallel)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "usherd: %s, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		httpSrv.Shutdown(ctx)
		cancel()
	}

	if *jsonPath != "" {
		if err := bench.WriteJSONFile(*jsonPath, srv.Stats()); err != nil {
			fmt.Fprintln(os.Stderr, "usherd: stats report:", err)
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "usherd: profiles:", err)
	}
}
