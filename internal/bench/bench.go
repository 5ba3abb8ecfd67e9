// Package bench regenerates every table and figure of the paper's
// evaluation (§4) over the synthetic workload suite:
//
//   - Table 1: per-benchmark static statistics of the value-flow analysis
//     under O0+IM;
//   - Figure 10: execution-time slowdowns of MSan, Usher_TL, Usher_TL+AT,
//     Usher_OptI and Usher relative to native execution;
//   - Figure 11: static shadow-propagation and check counts normalized to
//     MSan;
//   - §4.6: the same slowdowns under the O1 and O2 pipelines.
//
// Slowdown is measured with a deterministic cost model: each executed
// shadow propagation costs PropCost native-operation equivalents and each
// executed check CheckCost; overhead = shadow work / native work. The
// model makes runs reproducible to the instruction; wall-clock
// measurements of the same interpreter agree in ordering.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/workload"
)

// Cost-model weights, calibrated so full instrumentation lands near the
// paper's ~3x slowdown for MSan under O0+IM: shadow propagations touch
// shadow memory (and on real hardware dilate the cache footprint), checks
// add a compare+branch.
const (
	// PropCost is the native-op-equivalent cost of one shadow
	// propagation.
	PropCost = 3.3
	// CheckCost is the native-op-equivalent cost of one executed check.
	CheckCost = 1.5
)

// Overhead converts dynamic shadow counts into a slowdown percentage.
func Overhead(res *interp.Result) float64 {
	if res.Steps == 0 {
		return 0
	}
	work := PropCost*float64(res.ShadowProps) + CheckCost*float64(res.ShadowChecks)
	return 100 * work / float64(res.Steps)
}

// Compiled is one prepared benchmark.
type Compiled struct {
	Profile workload.Profile
	Source  string
	Prog    *ir.Program
	Level   passes.Level
}

// Prepare generates, compiles and optimizes one profile, recording the
// frontend and scalar passes into sc (nil records nothing).
func Prepare(p workload.Profile, level passes.Level, sc *stats.Collector) (*Compiled, error) {
	src := workload.Generate(p)
	prog, err := pipeline.Compile(p.Name+".c", src, sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := pipeline.ApplyLevel(prog, level, sc); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return &Compiled{Profile: p, Source: src, Prog: prog, Level: level}, nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Name    string
	KLOC    float64
	TimeSec float64
	MemMB   float64
	// VarTL is the number of top-level variables (virtual registers).
	VarTL int
	// Stack/Heap/Global count the address-taken variables by storage.
	Stack, Heap, Global int
	// PctF is the percentage of address-taken objects uninitialized when
	// allocated.
	PctF float64
	// SemiPerSite is the number of semi-strong-update applications per
	// non-array heap allocation site.
	SemiPerSite float64
	// Stores is the number of store instructions; PctSU / PctWU are the
	// percentages with strong updates and with single-target weak
	// updates.
	Stores       int
	PctSU, PctWU float64
	// VFGNodes is the size of the value-flow graph; PctB the percentage
	// of nodes reaching at least one critical statement.
	VFGNodes int
	PctB     float64
	// OptIS is the number of MFCs simplified by Opt I; OptIIR the number
	// of nodes redirected to T by Opt II.
	OptIS, OptIIR int
}

// Table1 computes the static statistics of every benchmark under O0+IM
// using up to parallel workers, recording every pass into sc (nil
// records nothing). Generation, compilation and optimization run
// concurrently across profiles; the measured analyses (the Time/Mem
// columns) then run serially so per-benchmark allocation and wall-clock
// attribution stay clean. All reported numbers and the aggregated
// counter stats are identical for any parallelism; the timing and
// allocation fields are measurements and are not.
func Table1(parallel int, sc *stats.Collector) ([]Table1Row, error) {
	profiles := workload.Profiles
	compiled := make([]*Compiled, len(profiles))
	err := pool.ForEach(parallel, len(profiles), func(i int) error {
		c, err := Prepare(profiles[i], passes.O0IM, sc)
		if err != nil {
			return err
		}
		compiled[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(profiles))
	for i, c := range compiled {
		row, err := table1Row(c, sc)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

func table1Row(c *Compiled, sc *stats.Collector) (Table1Row, error) {
	row := Table1Row{Name: c.Profile.Name}
	row.KLOC = float64(strings.Count(c.Source, "\n")) / 1000

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	an, err := usher.NewSessionObserved(c.Prog, sc).Analyze(usher.ConfigUsherFull)
	if err != nil {
		return row, fmt.Errorf("%s: %w", c.Profile.Name, err)
	}
	row.TimeSec = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	row.MemMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	for _, fn := range c.Prog.Funcs {
		if fn.HasBody {
			row.VarTL += fn.NumRegs()
		}
	}
	objs := c.Prog.Objects()
	uninit := 0
	for _, o := range objs {
		switch o.Kind {
		case ir.ObjStack:
			row.Stack++
		case ir.ObjHeap:
			row.Heap++
		case ir.ObjGlobal:
			row.Global++
		}
		if !o.ZeroInit {
			uninit++
		}
	}
	if len(objs) > 0 {
		row.PctF = 100 * float64(uninit) / float64(len(objs))
	}

	// Store-update classification: a store counts as strong if any of its
	// chis was strongly updated, weak-singleton if any was a
	// single-target weak update.
	g := an.Graph
	storeKind := make(map[ir.Instr]vfg.UpdateKind)
	for chi, kind := range g.StoreUpdates {
		prev, seen := storeKind[chi.Instr]
		if !seen || kind < prev {
			storeKind[chi.Instr] = kind
		}
	}
	var stores, su, wu int
	for _, fn := range c.Prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if _, ok := in.(*ir.Store); ok {
					stores++
					switch storeKind[in] {
					case vfg.UpdateStrong:
						su++
					case vfg.UpdateSemiStrong, vfg.UpdateWeakSingleton:
						wu++
					}
				}
			}
		}
	}
	row.Stores = stores
	if stores > 0 {
		row.PctSU = 100 * float64(su) / float64(stores)
		row.PctWU = 100 * float64(wu) / float64(stores)
	}

	// Semi-strong cuts per non-array heap allocation site.
	heapSites := 0
	for _, o := range objs {
		if o.Kind == ir.ObjHeap && !(o.Collapsed() && o.Size > 1) {
			heapSites++
		}
	}
	if heapSites > 0 {
		row.SemiPerSite = float64(g.SemiStrongCuts) / float64(heapSites)
	}

	row.VFGNodes = len(g.Nodes)
	reach := vfg.ReachesCritical(g)
	nb := 0
	for _, r := range reach {
		if r {
			nb++
		}
	}
	if len(reach) > 0 {
		row.PctB = 100 * float64(nb) / float64(len(reach))
	}
	row.OptIS = an.MFCsSimplified
	row.OptIIR = an.Redirected
	return row, nil
}

// ConfigRun is one configuration's dynamic result on one benchmark.
type ConfigRun struct {
	Config      usher.Config
	ConfigName  string
	Props       int64
	Checks      int64
	OverheadPct float64
	Warnings    int
	WallSec     float64
}

// OverheadRow is one benchmark's Figure 10 measurements.
type OverheadRow struct {
	Name        string
	NativeSteps int64
	Runs        []ConfigRun
}

// Fig10 measures the dynamic slowdown of every configuration on every
// given profile (workload.Profiles for the paper's figure) under the
// given optimization level (O0+IM for the paper's Figure 10; O1/O2 for
// §4.6), recording every pass into sc (nil records nothing). The worker
// bound applies at two levels: across profiles, and across
// configurations within a profile (which share one analysis session, so
// the pointer analysis, memory SSA and VFG of each program are built
// once, not once per configuration). parallel <= 1 reproduces the serial
// driver exactly.
func Fig10(profiles []workload.Profile, level passes.Level, parallel int, sc *stats.Collector) ([]OverheadRow, error) {
	rows := make([]OverheadRow, len(profiles))
	err := pool.ForEach(parallel, len(profiles), func(i int) error {
		c, err := Prepare(profiles[i], level, sc)
		if err != nil {
			return err
		}
		row, err := overheadRow(c, parallel, sc)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func overheadRow(c *Compiled, parallel int, sc *stats.Collector) (OverheadRow, error) {
	row := OverheadRow{Name: c.Profile.Name}
	native, err := usher.RunNative(c.Prog, usher.RunOptions{})
	if err != nil {
		return row, fmt.Errorf("%s native: %w", c.Profile.Name, err)
	}
	row.NativeSteps = native.Steps
	session := usher.NewSessionObserved(c.Prog, sc)
	row.Runs = make([]ConfigRun, len(usher.Configs))
	err = pool.ForEach(parallel, len(usher.Configs), func(i int) error {
		cfg := usher.Configs[i]
		an, err := session.Analyze(cfg)
		if err != nil {
			return fmt.Errorf("%s %v: %w", c.Profile.Name, cfg, err)
		}
		start := time.Now()
		res, err := an.Run(usher.RunOptions{})
		wall := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("%s %v: %w", c.Profile.Name, cfg, err)
		}
		if len(res.ShadowViolations) > 0 {
			return fmt.Errorf("%s %v: shadow violations: %v", c.Profile.Name, cfg, res.ShadowViolations[0])
		}
		if res.Exit.Int != native.Exit.Int {
			return fmt.Errorf("%s %v: exit diverged (%d vs %d)", c.Profile.Name, cfg, res.Exit.Int, native.Exit.Int)
		}
		row.Runs[i] = ConfigRun{
			Config:      cfg,
			ConfigName:  cfg.String(),
			Props:       res.ShadowProps,
			Checks:      res.ShadowChecks,
			OverheadPct: Overhead(res),
			Warnings:    len(res.ShadowWarnings),
			WallSec:     wall,
		}
		return nil
	})
	return row, err
}

// StaticRow is one benchmark's Figure 11 measurements: static counts per
// configuration, normalized to MSan.
type StaticRow struct {
	Name string
	// Base is MSan's absolute static counts.
	Base instrument.Stats
	// PropsPct and ChecksPct are per-configuration percentages of the
	// MSan counts, ordered like usher.Configs.
	PropsPct  []float64
	ChecksPct []float64
}

// Fig11 computes the static instrumentation counts under O0+IM using up
// to parallel workers across profiles and across configurations within a
// profile (per-profile analysis sessions share the config-invariant
// artifacts), recording every pass into sc (nil records nothing).
func Fig11(parallel int, sc *stats.Collector) ([]StaticRow, error) {
	profiles := workload.Profiles
	rows := make([]StaticRow, len(profiles))
	err := pool.ForEach(parallel, len(profiles), func(i int) error {
		c, err := Prepare(profiles[i], passes.O0IM, sc)
		if err != nil {
			return err
		}
		session := usher.NewSessionObserved(c.Prog, sc)
		sts := make([]instrument.Stats, len(usher.Configs))
		err = pool.ForEach(parallel, len(usher.Configs), func(j int) error {
			an, err := session.Analyze(usher.Configs[j])
			if err != nil {
				return fmt.Errorf("%s %v: %w", profiles[i].Name, usher.Configs[j], err)
			}
			sts[j] = an.StaticStats()
			return nil
		})
		if err != nil {
			return err
		}
		row := StaticRow{Name: profiles[i].Name, Base: sts[0]}
		for _, st := range sts {
			row.PropsPct = append(row.PropsPct, pct(st.Props, sts[0].Props))
			row.ChecksPct = append(row.ChecksPct, pct(st.Checks, sts[0].Checks))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func pct(n, base int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(n) / float64(base)
}

// Averages computes the arithmetic mean of a column selector over rows.
func Averages[T any](rows []T, sel func(T) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += sel(r)
	}
	return sum / float64(len(rows))
}
