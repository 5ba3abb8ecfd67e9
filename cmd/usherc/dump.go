package main

import (
	"fmt"
	"slices"
	"strings"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/vfg"
)

// dumpKinds lists what -dump prints, in the order it prints them.
const dumpKinds = "src,ir,pts,memssa,vfg,dot"

// dumper prints the artifacts -dump asked for. With more than one kind
// requested each gets a header; a single kind prints nothing but the
// artifact, so -dump src is MiniC and -dump dot is Graphviz DOT.
type dumper map[string]bool

// parseDump parses -dump's comma-separated list of dumpKinds.
func parseDump(list string) (dumper, error) {
	d := dumper{}
	if list == "" {
		return d, nil
	}
	for _, k := range strings.Split(list, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(strings.Split(dumpKinds, ","), k) {
			return nil, fmt.Errorf("unknown -dump kind %q (want a comma-separated list of %s)", k, dumpKinds)
		}
		d[k] = true
	}
	return d, nil
}

// wantsAny reports whether any of kinds was requested.
func (d dumper) wantsAny(kinds ...string) bool {
	return slices.ContainsFunc(kinds, func(k string) bool { return d[k] })
}

// section prints one requested artifact.
func (d dumper) section(kind, title string, body func()) {
	if !d[kind] {
		return
	}
	if len(d) > 1 {
		fmt.Printf("=== %s ===\n", title)
	}
	body()
	if len(d) > 1 {
		fmt.Println()
	}
}

// program prints the requested artifacts of the compiled program: its
// IR at level, then what the analysis computes from it.
func (d dumper) program(prog *ir.Program, level passes.Level, sc *stats.Collector) error {
	d.section("ir", fmt.Sprintf("IR (%s)", level), func() { fmt.Print(ir.Print(prog)) })
	if !d.wantsAny("pts", "memssa", "vfg", "dot") {
		return nil
	}
	// Build the shared artifacts through a Session so an internal panic in
	// any analysis stage surfaces as a rendered error, not a crash.
	s := usher.NewSessionObserved(prog, sc)
	pa, mem, err := s.Base()
	if err != nil {
		return err
	}
	d.section("pts", "points-to sets", func() { dumpPts(prog, pa) })
	d.section("memssa", "memory SSA", func() { dumpMemSSA(prog, mem) })
	if !d.wantsAny("vfg", "dot") {
		return nil
	}
	g, gm, err := s.Graph(false)
	if err != nil {
		return err
	}
	d.section("vfg", "value-flow graph", func() { dumpVFG(g, gm) })
	d.section("dot", "value-flow graph (DOT)", func() { dumpDOT(g, gm) })
	return nil
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
