// Command vfg-dump prints the intermediate artifacts of the Usher
// pipeline for a MiniC program: the SSA IR, points-to sets, memory SSA
// annotations, and the value-flow graph with its resolved definedness
// (text or Graphviz DOT).
//
// Usage:
//
//	vfg-dump [-ir] [-pts] [-memssa] [-vfg] [-dot] [-stats]
//	         [-cpuprofile path] [-memprofile path] file.c
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/diag"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/vfg"
)

func main() {
	showIR := flag.Bool("ir", false, "print the SSA IR")
	showPts := flag.Bool("pts", false, "print points-to sets of pointer operands")
	showMem := flag.Bool("memssa", false, "print mu/chi annotations")
	showVFG := flag.Bool("vfg", false, "print the VFG with definedness states")
	dot := flag.Bool("dot", false, "emit the VFG as Graphviz DOT")
	showStats := flag.Bool("stats", false, "print per-pipeline-pass stats (wall time, allocs, work counters)")
	pf := bench.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vfg-dump [flags] file.c")
		os.Exit(1)
	}
	stopProfiles, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "vfg-dump: profiles:", err)
		}
	}()
	if !*showIR && !*showPts && !*showMem && !*showVFG && !*dot {
		*showIR, *showVFG = true, true
	}
	var sc *stats.Collector
	if *showStats {
		sc = stats.New()
		defer func() {
			fmt.Println("=== pipeline pass stats ===")
			stats.Write(os.Stdout, sc.Snapshot())
		}()
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := pipeline.Compile(flag.Arg(0), string(data), sc)
	if err != nil {
		fatal(err)
	}
	if err := pipeline.ApplyLevel(prog, passes.O0IM, sc); err != nil {
		fatal(err)
	}
	// Build the shared artifacts through a Session so an internal panic in
	// any analysis stage surfaces as a rendered error, not a crash.
	s := usher.NewSessionObserved(prog, sc)
	pa, mem, err := s.Base()
	if err != nil {
		fatal(err)
	}
	g, gm, err := s.Graph(false)
	if err != nil {
		fatal(err)
	}

	if *showIR {
		fmt.Println("=== IR (O0+IM) ===")
		fmt.Print(ir.Print(prog))
		fmt.Println()
	}
	if *showPts {
		fmt.Println("=== points-to sets ===")
		dumpPts(prog, pa)
		fmt.Println()
	}
	if *showMem {
		fmt.Println("=== memory SSA ===")
		dumpMemSSA(prog, mem)
		fmt.Println()
	}
	if *showVFG {
		fmt.Println("=== value-flow graph ===")
		dumpVFG(g, gm)
	}
	if *dot {
		dumpDOT(g, gm)
	}
}

func dumpPts(prog *ir.Program, pa *pointer.Result) {
	for _, fn := range prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				var addrs []ir.Value
				switch in := in.(type) {
				case *ir.Load:
					addrs = []ir.Value{in.Addr}
				case *ir.Store:
					addrs = []ir.Value{in.Addr}
				case *ir.MemSet:
					addrs = []ir.Value{in.To}
				case *ir.MemCopy:
					addrs = []ir.Value{in.To, in.From}
				default:
					continue
				}
				var names []string
				for _, addr := range addrs {
					for _, l := range pa.PointsTo(addr) {
						names = append(names, l.String())
					}
				}
				fmt.Printf("%s l%d %-40s -> {%s}\n", fn.Name, in.Label(), in, strings.Join(names, ", "))
			}
		}
	}
}

func dumpMemSSA(prog *ir.Program, mem *memssa.Info) {
	for _, fn := range prog.Funcs {
		fi := mem.Funcs[fn]
		if fi == nil {
			continue
		}
		fmt.Printf("func %s: in=%v out=%v\n", fn.Name, fi.InVars, fi.OutVars)
		for _, b := range fn.Blocks {
			for _, phi := range fi.Phis[b] {
				fmt.Printf("  %s: %s = memphi(", b, phi)
				for i, a := range phi.PhiArgs {
					if i > 0 {
						fmt.Print(", ")
					}
					fmt.Print(a)
				}
				fmt.Println(")")
			}
			for _, in := range b.Instrs {
				mus := fi.Mus[in.Label()]
				chis := fi.Chis[in.Label()]
				if len(mus) == 0 && len(chis) == 0 {
					continue
				}
				fmt.Printf("  l%-3d %s\n", in.Label(), in)
				for _, mu := range mus {
					fmt.Printf("        mu(%s)\n", mu.Use)
				}
				for _, chi := range chis {
					fmt.Printf("        %s := chi(%s)\n", chi, chi.Prev)
				}
			}
		}
	}
}

func dumpVFG(g *vfg.Graph, gm *vfg.Gamma) {
	for i, n := range g.Nodes {
		id := vfg.NodeID(i)
		if vfg.IsRoot(id) {
			continue
		}
		fmt.Printf("%s [%s]", n, gm.Of(id))
		if deps := g.Deps(id); len(deps) > 0 {
			fmt.Print(" <- ")
			for j, e := range deps {
				if j > 0 {
					fmt.Print(", ")
				}
				fmt.Print(g.Nodes[e.To])
				switch e.Kind {
				case vfg.EdgeCall:
					fmt.Printf(" (call l%d)", g.Site(e.Site).Label())
				case vfg.EdgeRet:
					fmt.Printf(" (ret l%d)", g.Site(e.Site).Label())
				}
			}
		}
		fmt.Println()
	}
}

func dumpDOT(g *vfg.Graph, gm *vfg.Gamma) {
	fmt.Println("digraph vfg {")
	fmt.Println("  rankdir=BT;")
	for i, n := range g.Nodes {
		color := "black"
		if gm.Of(vfg.NodeID(i)) == vfg.Bottom {
			color = "red"
		}
		label := strings.ReplaceAll(n.String(), `"`, `'`)
		fmt.Printf("  n%d [label=\"%s\", color=%s];\n", i, label, color)
	}
	for i := range g.Nodes {
		for _, e := range g.Deps(vfg.NodeID(i)) {
			style := "solid"
			switch e.Kind {
			case vfg.EdgeCall:
				style = "dashed"
			case vfg.EdgeRet:
				style = "dotted"
			}
			fmt.Printf("  n%d -> n%d [style=%s];\n", i, e.To, style)
		}
	}
	fmt.Println("}")
}

// fatal renders err on stderr and exits non-zero. Structured diagnostics
// (see internal/diag) are printed one per line in source order.
func fatal(err error) {
	if ds := diag.All(err); len(ds) > 0 {
		for _, d := range ds {
			fmt.Fprintln(os.Stderr, "vfg-dump:", d)
		}
	} else {
		fmt.Fprintln(os.Stderr, "vfg-dump:", err)
	}
	os.Exit(1)
}
