// Semistrong: the paper's Figure 6 in action. A heap cell is allocated
// and immediately initialized inside a function called many times. A weak
// update can never kill the allocation's "undefined" state, so the loads
// stay instrumented forever; the semi-strong update reroutes the value
// flow around it and proves the loads defined.
package main

import (
	"fmt"
	"log"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgopt"
)

const src = `
int consume() {
  int *q = malloc(1);   // alloc_F: one uninitialized heap cell
  *q = 42;              // the store q's allocation dominates
  int v = *q;           // is v provably defined?
  free(q);
  return v;
}

int main() {
  int s = 0;
  for (int i = 0; i < 1000; i++) { s += consume(); }
  print(s);
  return 0;
}
`

func main() {
	prog, err := usher.Compile("fig6.c", src)
	if err != nil {
		log.Fatal(err)
	}
	pa := pointer.Analyze(prog)
	mem := memssa.Build(prog, pa)

	for _, variant := range []struct {
		name string
		opts vfg.Options
	}{
		{"with semi-strong updates (the paper's rule)", vfg.Options{}},
		{"ablation: semi-strong updates disabled", vfg.Options{NoSemiStrong: true}},
	} {
		g := vfg.Build(prog, pa, mem, variant.opts)
		gm, redirected := vfgopt.RedundantCheckElim(g, vfg.Resolve(g))
		res := instrument.Emit("demo", g, gm, redirected, instrument.GuidedOptions{OptI: true})
		st := res.Plan.StaticStats()
		fmt.Printf("%s:\n", variant.name)
		fmt.Printf("  semi-strong cuts: %d\n", g.SemiStrongCuts)
		fmt.Printf("  static shadow propagations: %d, checks: %d\n\n", st.Props, st.Checks)
	}
	fmt.Println("the weak update keeps the alloc_F reachable, so the hot loop stays")
	fmt.Println("instrumented; the semi-strong update removes all of it.")
}
