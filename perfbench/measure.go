package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rtSample is a point reading of the Go runtime's own counters.
type rtSample struct {
	allocBytes uint64  // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	gcCycles   uint64  // completed automatic GC cycles
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/automatic:gc-cycles",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}

// peakRSSMB is the process's peak resident set in MiB, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// collected starts timed work from a collected heap, as a fresh process
// would, and returns the runtime counters at that point.
func collected() rtSample {
	runtime.GC()
	return readRuntime()
}

// Set-up is repeated at least minSetups times and until minSetupSecs
// have passed, at most maxSetups times; setup_s is the median. Spreading
// the repetitions over a fraction of a second keeps one burst of host
// load from deciding a few-millisecond set-up.
const (
	minSetups    = 11
	maxSetups    = 101
	minSetupSecs = 0.3
)

// setup runs gen repeatedly, each time from a collected heap, and returns
// the median duration. Between two runs of gen, undo (if not nil) releases
// what the earlier one set up, untimed; the last run's set-up is kept.
func setup(gen func() error, undo func()) (float64, error) {
	var times []float64
	start := time.Now()
	for {
		collected()
		t0 := time.Now()
		if err := gen(); err != nil {
			return 0, err
		}
		times = append(times, since(t0))
		if len(times) >= maxSetups || (len(times) >= minSetups && since(start) >= minSetupSecs) {
			return median(times), nil
		}
		if undo != nil {
			undo()
		}
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so that
// spreads printed here match that function's. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// series collects one value per metric, operation and round. A metric's
// figure is the sum over operations of each operation's median across
// rounds: one slow round of one program moves it only as far as that
// program's median moves.
type series map[string]map[string][]float64

func (s series) add(metric, op string, v float64) {
	m := s[metric]
	if m == nil {
		m = make(map[string][]float64)
		s[metric] = m
	}
	m[op] = append(m[op], v)
}

func (s series) value(metric string) float64 {
	total := 0.0
	for _, v := range s.opMedians(metric) {
		total += v
	}
	return total
}

// opMedians is each operation's median of metric across rounds.
func (s series) opMedians(metric string) []float64 {
	var out []float64
	for _, vs := range s[metric] {
		out = append(out, median(vs))
	}
	return out
}

// values is every metric's figure.
func (s series) values() map[string]float64 {
	out := make(map[string]float64, len(s))
	for name := range s {
		out[name] = s.value(name)
	}
	return out
}

const mib = 1 << 20

// endToEnd is the end-to-end metrics every workload reports. An
// operation is one input program (paper-suite, big-graphs) or one request
// (daemon-mix); opsPerS is operations completed per second of timed work
// and opP50MS the median operation's latency in milliseconds.
func endToEnd(setupS, opsPerS, opP50MS float64) map[string]metric {
	return map[string]metric{
		"setup_s":   {setupS, "s"},
		"ops_per_s": {opsPerS, "1/s"},
		"op_p50_ms": {opP50MS, "ms"},
	}
}

// opFigures is endToEnd's operation figures for a workload whose
// operations run one at a time: each operation's median time across
// rounds (opS, in seconds) stands for the operation.
func opFigures(opS []float64) (opsPerS, opP50MS float64) {
	total := 0.0
	for _, v := range opS {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	return float64(len(opS)) / total, 1000 * median(opS)
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// layerDefs are the per-layer metrics of BENCHMARK.json. Every workload
// reports all of them, and a layer that the workload does not reach reads
// 0 (README.md, "Layers and per-layer metrics", says which layers each
// workload reaches).
var layerDefs = []metricDef{
	{"frontend.parse_s", "s"}, {"frontend.lower_s", "s"}, {"frontend.alloc_mb", "MB"}, {"frontend.instrs", "count"},
	{"passes.s", "s"},
	{"pointer.s", "s"}, {"pointer.constraints", "count"},
	{"memssa.s", "s"}, {"memssa.alloc_mb", "MB"},
	{"vfg.build_s", "s"}, {"vfg.resolve_s", "s"}, {"vfg.alloc_mb", "MB"}, {"vfg.nodes", "count"}, {"vfg.bottom", "count"},
	{"vfgopt.s", "s"}, {"vfgopt.redirected", "count"},
	{"instrument.s", "s"}, {"instrument.usher_items", "count"},
	{"interp.native_s", "s"}, {"interp.msan_s", "s"}, {"interp.guided_s", "s"}, {"interp.alloc_mb", "MB"},
	{"interp.steps", "count"}, {"interp.usher_props", "count"}, {"interp.usher_checks", "count"},
	{"interp.usher_overhead_pct", "%"},
	{"gc.cpu_s", "s"}, {"gc.cycles", "count"},
	{"mem.peak_rss_mb", "MB"},
	{"service.new_ms", "ms"}, {"service.resubmit_ms", "ms"}, {"service.edit_ms", "ms"},
	{"service.tail_ms", "ms"}, {"service.transport_ms", "ms"},
	{"service.analyze_s", "s"}, {"service.rest_s", "s"}, {"service.heap_mb", "MB"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.charged_mb", "MB"},
	{"module.compiled", "count"}, {"module.reused", "count"},
}

// layerMetrics reports every per-layer metric with its value in vals,
// or 0 where vals has none.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// printMetrics prints ms sorted by name, one per line.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
