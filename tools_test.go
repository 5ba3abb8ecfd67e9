package usher_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/workload"
)

// buildTool compiles one command into a temp dir and returns its path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestUshercCLI exercises the usherc command end-to-end on the sample
// programs.
func TestUshercCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/usherc")

	// A clean program: compare mode must show a table and zero warnings.
	out, err := exec.Command(bin, "-compare", "testdata/linkedlist.c").CombinedOutput()
	if err != nil {
		t.Fatalf("usherc -compare: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"MSan", "Usher", "native", "overhead", "violations"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "shadow violations") {
		t.Errorf("compare reports shadow violations on a clean program:\n%s", text)
	}

	// A buggy program: the default (usher) config must report it and the
	// process must still exit 0 (detection is a report, not a crash).
	out, err = exec.Command(bin, "testdata/uninit_bug.c").CombinedOutput()
	if err != nil {
		t.Fatalf("usherc on bug: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "use of undefined value") {
		t.Errorf("bug not reported:\n%s", out)
	}

	// Workload mode with source dump.
	out, err = exec.Command(bin, "-dump", "src", "-workload", "mcf").CombinedOutput()
	if err != nil {
		t.Fatalf("usherc -dump src: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "int kernel_0()") {
		t.Errorf("workload source not dumped:\n%.300s", out)
	}

	// Unknown config must fail.
	if out, err := exec.Command(bin, "-config", "bogus", "testdata/matrix.c").CombinedOutput(); err == nil {
		t.Errorf("bogus config accepted:\n%s", out)
	}

	// An ill-formed plan: solver-small's Usher run at O0+IM reads cell
	// shadows the plan never wrote. usherc must print each violation
	// and exit 1, in both modes.
	p, ok := workload.LargeByName("solver-small")
	if !ok {
		t.Fatal("no solver-small profile")
	}
	small := filepath.Join(t.TempDir(), "solver-small.c")
	if err := os.WriteFile(small, []byte(workload.GenerateLarge(p)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-level", "O0+IM", small}, {"-level", "O0+IM", "-compare", small}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("usherc %v: err = %v, want exit status 1\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "shadow violations") || !strings.Contains(string(out), "  load of uninitialized cell shadow at ") {
			t.Errorf("usherc %v: violations not reported:\n%s", args, out)
		}
	}
}

// TestVfgDumpCLI checks that usherc -dump prints each analysis artifact
// under its header and the value-flow graph as valid DOT alone.
func TestVfgDumpCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/usherc")
	out, err := exec.Command(bin, "-dump", "ir,pts,memssa,vfg", "testdata/linkedlist.c").CombinedOutput()
	if err != nil {
		t.Fatalf("usherc -dump: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"=== IR", "=== points-to", "=== memory SSA", "=== value-flow graph", "chi(", "mu("} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	out, err = exec.Command(bin, "-dump", "dot", "testdata/matrix.c").CombinedOutput()
	if err != nil {
		t.Fatalf("usherc -dump dot: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "digraph vfg {") || !strings.HasSuffix(string(out), "}\n") || !strings.Contains(string(out), "->") {
		t.Errorf("not DOT output:\n%.200s", out)
	}
}

// TestUsherDifftestCLI runs a small differential campaign end-to-end
// and checks the JSON report is bit-identical across worker counts.
func TestUsherDifftestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/usher-difftest")
	dir := t.TempDir()

	var blobs [][]byte
	for _, parallel := range []string{"1", "4"} {
		path := filepath.Join(dir, "report-p"+parallel+".json")
		out, err := exec.Command(bin, "-seeds", "25", "-parallel", parallel, "-json", path).CombinedOutput()
		if err != nil {
			t.Fatalf("usher-difftest -parallel %s: %v\n%s", parallel, err, out)
		}
		if !strings.Contains(string(out), "0 divergent") {
			t.Errorf("unexpected divergence:\n%s", out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), fmt.Sprintf(`"schemaVersion": %d`, bench.SchemaVersion)) {
			t.Errorf("report missing schemaVersion:\n%.200s", data)
		}
		blobs = append(blobs, data)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Errorf("JSON report differs between -parallel 1 and 4:\n%s\n----\n%s", blobs[0], blobs[1])
	}
}

// TestExamplesRun executes the fast example programs end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tests := []struct {
		pkg  string
		args []string
		want string
	}{
		{"examples/quickstart", nil, "no uses of undefined values"},
		{"examples/bugdetect", nil, "1 warnings"},
		{"examples/semistrong", nil, "semi-strong cuts: 1"},
		{"examples/overheadstudy", []string{"art"}, "saved-vs-MSan"},
	}
	for _, tt := range tests {
		bin := buildTool(t, tt.pkg)
		out, err := exec.Command(bin, tt.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tt.pkg, err, out)
		}
		if !strings.Contains(string(out), tt.want) {
			t.Errorf("%s output missing %q:\n%s", tt.pkg, tt.want, out)
		}
	}
}
