package workload_test

import (
	"strings"
	"testing"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/workload"
)

// TestResolveProfilesIsolated pins that the resolve-stress generator is
// fully gated: solver profiles carry none of the undef-dispatch IR, so
// their generated programs are unchanged by the Undef* fields.
func TestResolveProfilesIsolated(t *testing.T) {
	solver, ok := workload.XLByName("solver-xl-small")
	if !ok {
		t.Fatal("no solver-xl-small profile")
	}
	if txt := ir.Print(workload.BuildXL(solver)); strings.Contains(txt, "usite_") || strings.Contains(txt, "utarget_") {
		t.Error("solver profile contains resolve-stress functions")
	}
	res, ok := workload.XLByName("resolve-xl-small")
	if !ok {
		t.Fatal("no resolve-xl-small profile")
	}
	txt := ir.Print(workload.BuildXL(res))
	for _, want := range []string{"usite_0", "utarget_0", "ucell_0"} {
		if !strings.Contains(txt, want) {
			t.Errorf("resolve profile is missing %q", want)
		}
	}
}
