// Overheadstudy: sweep the five instrumentation configurations over one
// generated SPEC-like benchmark and show where the savings come from —
// the per-phase breakdown of Figure 10/11 on a single workload.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

func main() {
	name := "mcf"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	p, ok := workload.ByName(name)
	if !ok {
		log.Fatalf("unknown workload %q (try gzip, mcf, parser, ...)", name)
	}
	c, err := bench.Prepare(p, passes.O0IM, nil)
	if err != nil {
		log.Fatal(err)
	}
	native, err := usher.RunNative(c.Prog, usher.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s (%s): %d native ops, output %v\n\n",
		p.Name, p.Spec, native.Steps, native.Out)

	fmt.Println("config       dyn-props   dyn-checks  overhead%  saved-vs-MSan")
	var msanWork float64
	for _, cfg := range usher.Configs {
		an := usher.MustAnalyze(c.Prog, cfg)
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		work := bench.PropCost*float64(res.ShadowProps) + bench.CheckCost*float64(res.ShadowChecks)
		if cfg == usher.ConfigMSan {
			msanWork = work
		}
		saved := 0.0
		if msanWork > 0 {
			saved = 100 * (1 - work/msanWork)
		}
		fmt.Printf("%-12s %-11d %-11d %-10.0f %.1f%%\n",
			cfg, res.ShadowProps, res.ShadowChecks, bench.Overhead(res), saved)
	}

	// Where the static savings come from.
	full := usher.MustAnalyze(c.Prog, usher.ConfigUsherFull)
	fmt.Printf("\nUsher static detail: %d MFCs simplified by Opt I, %d nodes redirected by Opt II\n",
		full.MFCsSimplified, full.Redirected)
}
