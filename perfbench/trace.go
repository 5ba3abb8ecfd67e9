package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Op     string  `json:"op"`      // the program or request the span belongs to
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return sp.End - sp.Start
}

// layerOf maps a span name to its layer: the part before the first dot
// ("vfg.build" → "vfg"). Root operation spans are named "op".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span name's total self time: its duration
// minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]float64)
	for _, sp := range t.spans {
		out[sp.Name] += sp.End - sp.Start - covered(sp, children[sp.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := 0.0, 0.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// report prints each layer's self time and share of the root spans'
// total, with the unattributed remainder (the root spans' own self
// time), and writes the spans to a file.
func (t *tracer) report(w io.Writer, opts options) error {
	self := t.selfTimes()
	byLayer := make(map[string]float64)
	for name, s := range self {
		byLayer[layerOf(name)] += s
	}
	total := 0.0
	for _, sp := range t.spans {
		if sp.Parent == 0 {
			total += sp.End - sp.Start
		}
	}
	var layers []string
	for l := range byLayer {
		if l != "op" {
			layers = append(layers, l)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "traced: %d spans, %.3f s in operations\n", len(t.spans), total)
	for _, l := range layers {
		fmt.Fprintf(w, "  layer %-12s self %8.3f s  %5.1f%%\n", l, byLayer[l], pct(byLayer[l], total))
	}
	fmt.Fprintf(w, "  %-18s self %8.3f s  %5.1f%%\n", "unattributed", byLayer["op"], pct(byLayer["op"], total))
	path, err := t.write(opts.outDir, fmt.Sprintf("trace-%s-seed%d.json", opts.workload, opts.seed))
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "  spans written to %s\n", path)
	return nil
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
