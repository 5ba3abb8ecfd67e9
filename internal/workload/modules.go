package workload

import (
	"fmt"
	"strings"
)

// ModuleFile is one generated module: name and source. It mirrors
// module.File without importing internal/module (which depends on
// internal/bench, which imports this package); callers convert with a
// one-line loop or module-side helpers.
type ModuleFile struct {
	Name   string
	Source string
}

// ModuleProject parameterizes the synthetic multi-file project used to
// benchmark incremental, dependency-batched analysis. Where Profiles
// model the paper's Table 1 program characteristics, a ModuleProject
// models a *codebase*: a four-layer include DAG (core → util → libs →
// aggregators → main) whose shape exercises the module build's
// batching, hashing and warm-unit reuse.
//
// The layering is deliberate: every lib module includes the two base
// modules, every aggregator includes a disjoint slice of libs, and main
// includes every aggregator — so editing one lib invalidates exactly
// that lib, its aggregator and main (3 of the default 50 modules),
// which is what the invalidation tests pin.
//
// Each lib carries a `tweak_N` function whose constant is the designated
// 1-line edit site (see Edit), and every BugEvery-th lib plants a real
// use of an uninitialized heap field on an executed path, so warning
// comparisons between multi-file and flattened single-file builds are
// non-vacuous. Generation is fully deterministic.
type ModuleProject struct {
	Name string
	// Libs is the number of leaf library modules; LibsPerAgg groups them
	// under aggregator modules.
	Libs       int
	LibsPerAgg int
	// BugEvery plants an uninitialized-field read in every n-th lib
	// (1-based; 0 disables). The bug is executed, so dynamic runs warn.
	BugEvery int
}

// DefaultModuleProject is the committed 50-module shape: core + util +
// 40 libs + 7 aggregators + main.
var DefaultModuleProject = ModuleProject{
	Name: "modproj", Libs: 40, LibsPerAgg: 6, BugEvery: 13,
}

// WideModuleProject is the 135-module shape: core + util + 120 libs +
// 12 aggregators + main.
var WideModuleProject = ModuleProject{
	Name: "modproj-wide", Libs: 120, LibsPerAgg: 10, BugEvery: 13,
}

// NumModules returns the total module count of the generated project.
func (p ModuleProject) NumModules() int {
	return 2 + p.Libs + p.numAggs() + 1
}

func (p ModuleProject) numAggs() int {
	return (p.Libs + p.LibsPerAgg - 1) / p.LibsPerAgg
}

// GenerateModules renders the project as a module set for module.Build
// (or, flattened, for the single-file pipeline).
func (p ModuleProject) GenerateModules() []ModuleFile {
	if p.Libs <= 0 {
		p.Libs = 1
	}
	if p.LibsPerAgg <= 0 {
		p.LibsPerAgg = 1
	}
	files := []ModuleFile{
		{Name: "core", Source: p.coreSource()},
		{Name: "util", Source: p.utilSource()},
	}
	for i := 0; i < p.Libs; i++ {
		files = append(files, ModuleFile{Name: libName(i), Source: p.libSource(i)})
	}
	for j := 0; j < p.numAggs(); j++ {
		files = append(files, ModuleFile{Name: aggName(j), Source: p.aggSource(j)})
	}
	files = append(files, ModuleFile{Name: "main", Source: p.mainSource()})
	return files
}

func libName(i int) string { return fmt.Sprintf("lib_%02d", i) }
func aggName(j int) string { return fmt.Sprintf("agg_%d", j) }

func (p ModuleProject) coreSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// core: shared struct, allocator and store helpers (%s).\n", p.Name)
	b.WriteString("int checksum;\n")
	b.WriteString("struct Node { int a; int b; int c; struct Node *next; };\n")
	b.WriteString("struct Node *node_alloc() { return malloc(sizeof(struct Node)); }\n")
	b.WriteString("void set_cell(int *p, int v) { *p = v; }\n")
	b.WriteString("struct Pt { int x; int y; };\n")
	b.WriteString("struct Pt pt_mk(int x) { struct Pt p; p.x = x; p.y = x * 3; return p; }\n")
	b.WriteString("int vjoin(int n, ...) {\n")
	b.WriteString("  int t = 0;\n")
	b.WriteString("  for (int i = 0; i < n; i++) { t += va_arg(i); }\n")
	b.WriteString("  return t;\n}\n")
	b.WriteString("char corename[8] = \"core\";\n")
	return b.String()
}

func (p ModuleProject) utilSource() string {
	var b strings.Builder
	b.WriteString("// util: pure arithmetic helpers shared by every lib.\n")
	b.WriteString(`#include "core"` + "\n")
	b.WriteString("int clamp(int v, int lo, int hi) {\n")
	b.WriteString("  if (v < lo) { return lo; }\n")
	b.WriteString("  if (v > hi) { return hi; }\n")
	b.WriteString("  return v;\n}\n")
	b.WriteString("int mix(int a, int b) { return (a * 31 + b) ^ (b & 7); }\n")
	// tagsum builds a fully-defined tag (memset fill overwritten by a
	// string copy) and folds its bytes; the whole buffer is readable.
	b.WriteString("int tagsum(int salt) {\n")
	b.WriteString("  char tag[8];\n")
	b.WriteString("  memset(tag, 48 + (salt & 7), 8);\n")
	b.WriteString("  memcpy(tag, corename, 5);\n")
	b.WriteString("  int t = 0;\n")
	b.WriteString("  for (int i = 0; i < 8; i++) { t += tag[i]; }\n")
	b.WriteString("  return t;\n}\n")
	return b.String()
}

// tweakLine is the designated 1-line edit site of a lib module; Edit
// rewrites its constant.
func tweakLine(i, value int) string {
	return fmt.Sprintf("int tweak_%02d() { return %d; }", i, value)
}

func (p ModuleProject) buggy(i int) bool {
	return p.BugEvery > 0 && (i+1)%p.BugEvery == 0
}

func (p ModuleProject) libSource(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: node builders over the core struct.\n", libName(i))
	b.WriteString(`#include "core"` + "\n")
	b.WriteString(`#include "util"` + "\n")
	b.WriteString(tweakLine(i, 1) + "\n")
	fmt.Fprintf(&b, "struct Node *mk_%02d(int seed) {\n", i)
	b.WriteString("  struct Node *n = node_alloc();\n")
	fmt.Fprintf(&b, "  set_cell(&n->a, mix(seed, %d));\n", i+1)
	fmt.Fprintf(&b, "  n->b = clamp(seed, 0, %d);\n", 64+i)
	if p.buggy(i) {
		// Planted bug: n->c stays uninitialized, and sum branches on it —
		// a genuine dynamic undefined-value use at a critical operation,
		// warned at this lib's own site (not folded into downstream
		// arithmetic, which would collapse all bugs into one warning at
		// the final checksum use).
		b.WriteString("  // BUG: c is left uninitialized.\n")
	} else {
		fmt.Fprintf(&b, "  n->c = seed + %d;\n", i)
	}
	b.WriteString("  n->next = 0;\n")
	b.WriteString("  return n;\n}\n")
	fmt.Fprintf(&b, "int sum_%02d(struct Node *n) {\n", i)
	// Local string literals: every lib's unit interns its own name (all
	// distinct) plus a tag shared by content with every other lib — the
	// linker must renumber the former and dedup the latter, never collide
	// on the per-unit ".str" names.
	fmt.Fprintf(&b, "  char lname[8] = \"l%02d\";\n", i)
	fmt.Fprintf(&b, "  char tagl[4] = \"ok\";\n")
	fmt.Fprintf(&b, "  struct Pt p = pt_mk(n->a);\n")
	if p.buggy(i) {
		fmt.Fprintf(&b, "  int t = n->a + n->b + tweak_%02d() + p.y + lname[1] + tagl[0] + vjoin(2, n->b, tagsum(n->a));\n", i)
		b.WriteString("  if (n->c > 0) { t += 1; }\n")
		b.WriteString("  return t;\n}\n")
	} else {
		fmt.Fprintf(&b, "  return n->a + n->b + n->c + tweak_%02d() + p.y + lname[1] + tagl[0] + vjoin(2, n->b, tagsum(n->a));\n}\n", i)
	}
	return b.String()
}

func (p ModuleProject) aggSource(j int) string {
	var b strings.Builder
	lo := j * p.LibsPerAgg
	hi := lo + p.LibsPerAgg
	if hi > p.Libs {
		hi = p.Libs
	}
	fmt.Fprintf(&b, "// %s: aggregates libs %d..%d.\n", aggName(j), lo, hi-1)
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "#include %q\n", libName(i))
	}
	fmt.Fprintf(&b, "int agg_run_%d() {\n", j)
	b.WriteString("  int t = 0;\n")
	b.WriteString("  struct Node *n = 0;\n")
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "  n = mk_%02d(%d);\n", i, 3*i+j+5)
		fmt.Fprintf(&b, "  t += sum_%02d(n);\n", i)
		b.WriteString("  free(n);\n")
	}
	b.WriteString("  return t;\n}\n")
	return b.String()
}

func (p ModuleProject) mainSource() string {
	var b strings.Builder
	b.WriteString("// main: drives every aggregator.\n")
	for j := 0; j < p.numAggs(); j++ {
		fmt.Fprintf(&b, "#include %q\n", aggName(j))
	}
	b.WriteString("int main() {\n")
	b.WriteString("  checksum = 0;\n")
	for j := 0; j < p.numAggs(); j++ {
		fmt.Fprintf(&b, "  checksum += agg_run_%d();\n", j)
	}
	b.WriteString("  print(checksum);\n")
	b.WriteString("  return checksum & 255;\n}\n")
	return b.String()
}

// Edit returns a copy of files with the named lib module's tweak
// constant bumped to value — the canonical 1-line edit driving
// perfbench's daemon-mix edits and the invalidation tests. Non-lib modules
// (no tweak line) are returned unchanged with ok=false.
func Edit(files []ModuleFile, name string, value int) ([]ModuleFile, bool) {
	out := append([]ModuleFile(nil), files...)
	edited := false
	for i := range out {
		if out[i].Name != name {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "lib_%d", &n); err != nil {
			break
		}
		old := tweakLine(n, 1)
		if !strings.Contains(out[i].Source, old) {
			break
		}
		out[i].Source = strings.Replace(out[i].Source, old, tweakLine(n, value), 1)
		edited = true
	}
	return out, edited
}
