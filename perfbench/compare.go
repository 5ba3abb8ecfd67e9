package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one set of saved runs of one workload.
type runSet struct {
	runs              int
	attempted, failed int
	values            map[string][]float64
}

// readSet reads every <workload>-<seed>.out file in dir, each a run's
// standard output, and groups the runs' results by workload.
func readSet(dir string) (map[string]*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no *.out run files", dir)
	}
	sets := make(map[string]*runSet)
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".out")
		i := strings.LastIndexByte(base, '-')
		if i <= 0 {
			return nil, fmt.Errorf("%s: want a <workload>-<seed>.out file name", p)
		}
		res, err := lastResult(p)
		if err != nil {
			return nil, err
		}
		s := sets[base[:i]]
		if s == nil {
			s = &runSet{values: make(map[string][]float64)}
			sets[base[:i]] = s
		}
		s.runs++
		s.attempted += res.Attempted
		s.failed += res.Failed
		for name, m := range res.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return sets, nil
}

// lastResult parses the result line a run prints last.
func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &res, nil
}

// compare prints, for each workload and end-to-end metric, each set's
// median and quartiles and whether B's median is worse than A's by more
// than the metric's bound. It fails if any is.
func compare(w io.Writer, dirA, dirB string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readSet(dirA)
	if err != nil {
		return err
	}
	b, err := readSet(dirB)
	if err != nil {
		return err
	}
	var names []string
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := 0
	for _, wl := range names {
		sa, sb := a[wl], b[wl]
		if sb == nil {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, dirB)
			continue
		}
		fmt.Fprintf(w, "%s: A %d runs (%d/%d failed), B %d runs (%d/%d failed)\n",
			wl, sa.runs, sa.failed, sa.attempted, sb.runs, sb.failed, sb.attempted)
		fmt.Fprintf(w, "  %-20s %-6s %12s %23s %12s %23s %8s %6s  %s\n",
			"metric", "unit", "A median", "A q1..q3 (spread)", "B median", "B q1..q3 (spread)", "B vs A", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > m.Bound {
				verdict = "WORSE"
				worse++
			}
			fmt.Fprintf(w, "  %-20s %-6s %12.4f %23s %12.4f %23s %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, ma, spreadOf(va), mb, spreadOf(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse by more than their bound", worse)
	}
	return nil
}

// spreadOf renders the quartiles and their distance as a share of the
// median.
func spreadOf(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g..%.4g (%.1f%%)", q1, q3, 100*(q3-q1)/median(xs))
}
