package interp_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/workload"
)

// guidedPlan compiles a paper profile at O0+IM with few iterations and
// returns it with its Usher plan.
func guidedPlan(t *testing.T, name string) (*ir.Program, *instrument.Plan) {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p.Iters = 2
	prog := compileO0IM(t, workload.Generate(p))
	an, err := usher.NewSession(prog).Analyze(usher.ConfigUsherFull)
	if err != nil {
		t.Fatal(err)
	}
	return prog, an.Plan
}

// TestItemTablesBuiltOncePerPlan pins that the label-indexed item tables
// belong to the plan: the first run of a plan builds them, and a second
// run of the same plan allocates less.
func TestItemTablesBuiltOncePerPlan(t *testing.T) {
	prog, plan := guidedPlan(t, "vortex")
	opts := interp.Options{Shadow: &interp.ShadowConfig{Plan: plan}}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := interp.Run(prog, "main", nil, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	if second >= first {
		t.Errorf("a second run of one plan allocated %d bytes, the first %d; want less", second, first)
	}
}

// TestConcurrentRunsShareOnePlan runs one fresh plan from several
// goroutines at once (run it with -race): the runs share the plan's
// item tables and must agree with a lone run of another compilation.
func TestConcurrentRunsShareOnePlan(t *testing.T) {
	prog, plan := guidedPlan(t, "vpr")
	opts := interp.Options{Shadow: &interp.ShadowConfig{Plan: plan}}
	const runs = 4
	results := make([]*interp.Result, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := interp.Run(prog, "main", nil, opts)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	alone, own := guidedPlan(t, "vpr")
	want, err := interp.Run(alone, "main", nil, interp.Options{Shadow: &interp.ShadowConfig{Plan: own}})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.ShadowProps != want.ShadowProps || res.ShadowChecks != want.ShadowChecks ||
			!reflect.DeepEqual(res.ShadowWarnings, want.ShadowWarnings) || !reflect.DeepEqual(res.Out, want.Out) {
			t.Errorf("run %d: props %d checks %d warnings %v, want %d %d %v",
				i, res.ShadowProps, res.ShadowChecks, res.ShadowWarnings,
				want.ShadowProps, want.ShadowChecks, want.ShadowWarnings)
		}
	}
}
