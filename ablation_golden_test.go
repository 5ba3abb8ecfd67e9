package usher_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/workload"
)

const ablationGoldenFile = "testdata/golden/ablations.json"

// TestAblationGolden pins every column of the ablation study over the
// paper's 15 profiles, as usher-bench -ablations prints them and
// EXPERIMENTS.md quotes them. A change that moves them on purpose
// regenerates the fixture with `go test -run TestAblationGolden -update`
// and says why.
func TestAblationGolden(t *testing.T) {
	rows, err := bench.Ablations(workload.Profiles, pool.DefaultParallelism())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(ablationGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ablationGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w []bench.AblationRow
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("%s: %v", ablationGoldenFile, err)
	}
	if len(rows) != len(w) {
		t.Fatalf("%d rows, fixture has %d", len(rows), len(w))
	}
	for i := range rows {
		if rows[i] != w[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", rows[i].Name, rows[i], w[i])
		}
	}
	if !t.Failed() {
		t.Errorf("output differs from %s in layout only; regenerate it with -update", ablationGoldenFile)
	}
}
