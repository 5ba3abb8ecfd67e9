package vfg_test

import (
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgopt"
	"github.com/valueflow/usher/internal/workload"
)

// benchGraph builds the full VFG of one workload profile.
func benchGraph(b *testing.B, name string) *vfg.Graph {
	b.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("no workload %s", name)
	}
	src := workload.Generate(p)
	prog, err := usher.Compile(p.Name+".c", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		b.Fatal(err)
	}
	pa := pointer.Analyze(prog)
	mem := memssa.Build(prog, pa)
	return vfg.Build(prog, pa, mem, vfg.Options{})
}

// BenchmarkResolve measures bit-set Γ resolution on a mid-size graph
// (~10k nodes).
func BenchmarkResolve(b *testing.B) {
	g := benchGraph(b, "mesa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm := vfg.Resolve(g)
		if gm.BottomCount() == 0 {
			b.Fatal("no ⊥ nodes")
		}
	}
}

// BenchmarkResolveContextInsensitive is the §3.3 ablation's resolution.
func BenchmarkResolveContextInsensitive(b *testing.B) {
	g := benchGraph(b, "mesa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm := vfg.ResolveWith(g, vfg.ResolveOptions{ContextInsensitive: true})
		if gm.BottomCount() == 0 {
			b.Fatal("no ⊥ nodes")
		}
	}
}

// BenchmarkResolveLarge runs resolution on the largest suite graph
// (~90k nodes) to expose cache behaviour at scale.
func BenchmarkResolveLarge(b *testing.B) {
	g := benchGraph(b, "gcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vfg.Resolve(g)
	}
}

// optIISink keeps BenchmarkResolveXL's last call live.
var optIISink *vfg.Gamma

// BenchmarkResolveXL times all the resolution one session of the
// resolve-stress profile pays for: Γ over the full and the top-level-only
// graph, plus Opt II's redundant-check elimination with its cut
// re-resolution. Its 150 undef sites each call the same 80 workers, so a
// resolver that walks a callee body once per calling context does
// 150 × 80 × 300 node visits here.
func BenchmarkResolveXL(b *testing.B) {
	p, ok := workload.XLByName("resolve-xl")
	if !ok {
		b.Fatal("no resolve-xl profile")
	}
	prog := workload.BuildXL(p)
	pa := pointer.Analyze(prog)
	mem := memssa.Build(prog, pa)
	full := vfg.Build(prog, pa, mem, vfg.Options{})
	tl := vfg.Build(prog, pa, mem, vfg.Options{TopLevelOnly: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm := vfg.Resolve(full)
		if vfg.Resolve(tl).BottomCount() == 0 {
			b.Fatal("no ⊥ nodes")
		}
		optIISink, _ = vfgopt.RedundantCheckElim(full, gm)
	}
}
