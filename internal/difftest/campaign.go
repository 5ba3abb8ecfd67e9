package difftest

import (
	"fmt"
	"math/rand"

	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/pool"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/stats"
)

// SchemaVersion identifies the JSON layout of Report. The two drivers
// (usher-bench and usher-difftest) share one schema version so their
// reports evolve in lockstep.
const SchemaVersion = bench.SchemaVersion

// CampaignOptions configure a differential-testing sweep.
type CampaignOptions struct {
	// From is the first randprog seed; Seeds is the number of seeds.
	From, Seeds int64
	// Parallel is the worker count (<= 1 means serial). Results are
	// bit-identical for any value.
	Parallel int
	// Gen bounds the generated programs (zero value: randprog defaults).
	Gen randprog.Options
	// Minimize shrinks every diverging program to a minimal repro.
	Minimize bool
	// Stats optionally collects per-pass pipeline observations across the
	// whole sweep; the snapshot lands in Report.Phases.
	Stats *stats.Collector
}

// Finding is one diverging seed, with its minimized reproducer when
// minimization was requested.
type Finding struct {
	Seed       int64       `json:"seed"`
	Divergence *Divergence `json:"divergence"`
	// Mutation names the semantic mutation applied before the divergence
	// was observed (empty for plain generated programs).
	Mutation string `json:"mutation,omitempty"`
	// Clean is the generator's implied label for the program.
	Clean bool `json:"clean"`
	// Stmts and MinStmts count statements before and after minimization.
	Stmts     int    `json:"stmts"`
	MinStmts  int    `json:"min_stmts,omitempty"`
	Source    string `json:"source"`
	Minimized string `json:"minimized,omitempty"`
}

// Report is the machine-readable outcome of one campaign. Without
// Phases, every field is a pure function of the options, so the JSON
// rendering is bit-identical for any Parallel value and carries no timing
// or host information. With -stats, Phases is present: its runs and
// counters keep that guarantee, its wall_sec/alloc_bytes measurements do
// not (see internal/stats).
type Report struct {
	SchemaVersion int              `json:"schemaVersion"`
	Tool          string           `json:"tool"`
	Configs       []string         `json:"configs"`
	From          int64            `json:"from"`
	Seeds         int64            `json:"seeds"`
	Generator     randprog.Options `json:"generator"`
	// Checked counts seeds actually compared; Divergent counts findings.
	Checked   int64 `json:"checked"`
	Divergent int   `json:"divergent"`
	// Mutants counts mutated programs replayed (mutation campaigns only).
	Mutants  int64     `json:"mutants,omitempty"`
	Findings []Finding `json:"findings,omitempty"`
	// Phases is the per-pass analysis breakdown (present with -stats).
	Phases []stats.PassStats `json:"phases,omitempty"`
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	return bench.WriteJSONFile(path, r)
}

// Campaign sweeps the seed range through the differential oracle on
// opts.Parallel workers (the deterministic pool.ForEach pool) and
// returns the findings ordered by seed. A divergence is a *finding*, not
// an error: the sweep always covers the whole range. The error return is
// reserved for infrastructure failures.
func Campaign(opts CampaignOptions) (*Report, error) {
	if opts.Seeds < 0 {
		return nil, fmt.Errorf("difftest: negative seed count %d", opts.Seeds)
	}
	gen := opts.Gen
	if gen == (randprog.Options{}) {
		gen = randprog.DefaultOptions
	}
	checker := New()
	checker.Stats = opts.Stats
	report := &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "usher-difftest",
		From:          opts.From,
		Seeds:         opts.Seeds,
		Generator:     gen,
	}
	for _, cfg := range checker.Configs {
		report.Configs = append(report.Configs, cfg.String())
	}

	// findings[i] belongs to seed From+i: the slice is pre-sized and
	// written by index, so ordering never depends on scheduling.
	findings := make([]*Finding, opts.Seeds)
	err := pool.ForEach(opts.Parallel, int(opts.Seeds), func(i int) error {
		seed := opts.From + int64(i)
		src, info := randprog.GenerateInfo(seed, gen)
		div := checker.Check(src)
		if div == nil {
			return nil
		}
		f := &Finding{
			Seed:       seed,
			Divergence: div,
			Clean:      info.Clean(),
			Stmts:      CountStmts(src),
			Source:     src,
		}
		if opts.Minimize {
			min := Minimize(src, func(candidate string) bool {
				return div.SameBug(checker.Check(candidate))
			})
			f.Minimized = min
			f.MinStmts = CountStmts(min)
		}
		findings[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range findings {
		report.Checked++
		if f != nil {
			report.Divergent++
			report.Findings = append(report.Findings, *f)
		}
	}
	report.Checked = opts.Seeds
	report.Phases = opts.Stats.Snapshot()
	return report, nil
}

// MutationCampaignOptions configure a sanitizer-vs-sanitizer sweep:
// every seed's generated program is perturbed by semantic mutations
// (see MutationKinds) and each mutant is replayed under every
// configuration against the mutant's own interpreter ground truth.
type MutationCampaignOptions struct {
	CampaignOptions
	// MutantsPerSeed bounds the mutants replayed per seed; 0 replays
	// every applicable mutation. Mutants are sampled deterministically
	// per seed, spread across the mutation kinds.
	MutantsPerSeed int
}

// MutationCampaign sweeps the seed range, mutating each generated
// program and cross-checking every mutant. Divergences become findings
// tagged with their mutation; the report is bit-identical for any
// Parallel value.
func MutationCampaign(opts MutationCampaignOptions) (*Report, error) {
	if opts.Seeds < 0 {
		return nil, fmt.Errorf("difftest: negative seed count %d", opts.Seeds)
	}
	gen := opts.Gen
	if gen == (randprog.Options{}) {
		gen = randprog.DefaultOptions
	}
	checker := New()
	checker.Stats = opts.Stats
	report := &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "usher-difftest",
		From:          opts.From,
		Seeds:         opts.Seeds,
		Generator:     gen,
	}
	for _, cfg := range checker.Configs {
		report.Configs = append(report.Configs, cfg.String())
	}

	// findings[i] and mutants[i] belong to seed From+i; per-seed work is
	// fully deterministic, so the report never depends on scheduling.
	findings := make([][]Finding, opts.Seeds)
	mutants := make([]int64, opts.Seeds)
	err := pool.ForEach(opts.Parallel, int(opts.Seeds), func(i int) error {
		seed := opts.From + int64(i)
		src, info := randprog.GenerateInfo(seed, gen)
		for _, m := range sampleMutations(src, seed, opts.MutantsPerSeed) {
			mutated, ok := Apply(src, m)
			if !ok {
				continue
			}
			mutants[i]++
			div := checker.Check(mutated)
			if div == nil {
				continue
			}
			f := Finding{
				Seed:       seed,
				Divergence: div,
				Mutation:   m.String(),
				Clean:      info.Clean(),
				Stmts:      CountStmts(mutated),
				Source:     mutated,
			}
			if opts.Minimize {
				min := Minimize(mutated, func(candidate string) bool {
					return div.SameBug(checker.Check(candidate))
				})
				f.Minimized = min
				f.MinStmts = CountStmts(min)
			}
			findings[i] = append(findings[i], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, fs := range findings {
		report.Mutants += mutants[i]
		report.Divergent += len(fs)
		report.Findings = append(report.Findings, fs...)
	}
	report.Checked = opts.Seeds
	report.Phases = opts.Stats.Snapshot()
	return report, nil
}

// sampleMutations picks up to limit mutations of src (all of them when
// limit <= 0), deterministically per seed and spread across kinds:
// candidates are taken round-robin — one of each kind per round, the
// in-kind order shuffled by the seed — so a low limit still covers
// every applicable kind.
func sampleMutations(src string, seed int64, limit int) []Mutation {
	all := Mutations(src)
	if limit <= 0 || len(all) <= limit {
		return all
	}
	byKind := make(map[MutationKind][]Mutation)
	for _, m := range all {
		byKind[m.Kind] = append(byKind[m.Kind], m)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6d75746174)) // "mutat"
	for _, ms := range byKind {
		rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
	}
	var out []Mutation
	for len(out) < limit {
		advanced := false
		for _, k := range MutationKinds {
			if ms := byKind[k]; len(ms) > 0 {
				out = append(out, ms[0])
				byKind[k] = ms[1:]
				advanced = true
				if len(out) == limit {
					break
				}
			}
		}
		if !advanced {
			break
		}
	}
	return out
}
