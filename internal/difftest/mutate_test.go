package difftest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/pipeline"
)

// mutationFixture exercises every mutation kind at least once: a
// load-bearing memset, a full-length memcpy, adjacent struct
// assignments, and an int initializer eligible for varargs routing.
const mutationFixture = `
int vsum(int n, ...) {
  int t = 0;
  for (int i = 0; i < n; i++) { t += va_arg(i); }
  return t;
}
struct S { int a; int b; };
struct S mks(int a) { struct S s; s.a = a; s.b = a * 2; return s; }
int main() {
  char buf[8];
  memset(buf, 65, 8);
  char dst[8];
  memcpy(dst, buf, 8);
  struct S s = mks(3);
  struct S t = mks(4);
  t = s;
  s.a = 9;
  int v = vsum(2, s.a, t.b);
  int w = dst[3] + buf[5];
  print(v + w + t.a);
  return 0;
}
`

func oracleSiteCount(t *testing.T, src string) int {
	t.Helper()
	prog, err := pipeline.Compile("mutfix.c", src, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	native, err := usher.RunNative(prog, usher.RunOptions{})
	if err != nil {
		t.Fatalf("native run trapped: %v", err)
	}
	return len(native.OracleSites())
}

// TestMutationsEnumerate pins that the fixture yields every kind, in
// deterministic kind-major order, and that every mutant still compiles
// and runs trap-free (mutations perturb definedness, never validity).
func TestMutationsEnumerate(t *testing.T) {
	muts := Mutations(mutationFixture)
	if len(muts) == 0 {
		t.Fatal("no mutations enumerated")
	}
	seen := map[MutationKind]int{}
	lastKind := -1
	kindRank := map[MutationKind]int{}
	for i, k := range MutationKinds {
		kindRank[k] = i
	}
	for _, m := range muts {
		seen[m.Kind]++
		if r := kindRank[m.Kind]; r < lastKind {
			t.Errorf("mutation %v out of kind-major order", m)
		} else {
			lastKind = r
		}
	}
	for _, k := range MutationKinds {
		if seen[k] == 0 {
			t.Errorf("fixture yields no %s mutation", k)
		}
	}
	for _, m := range muts {
		mutated, ok := Apply(mutationFixture, m)
		if !ok {
			t.Fatalf("Apply(%v) failed", m)
		}
		if mutated == mutationFixture {
			t.Errorf("Apply(%v) returned the original program", m)
		}
		if _, err := pipeline.Compile("mut.c", mutated, nil); err != nil {
			t.Errorf("mutant %v does not compile: %v\n%s", m, err, mutated)
		}
	}
	// Unknown index: reported as inapplicable, not a panic.
	if _, ok := Apply(mutationFixture, Mutation{Kind: DropMemset, Index: 99}); ok {
		t.Error("Apply with out-of-range index succeeded")
	}
}

// TestMutantsPlantRealBugs is the sanitizer-vs-sanitizer core: dropping
// the load-bearing memset (and shrinking the copy feeding dst) plants a
// genuine undefined-value use — the interpreter oracle flags it — and
// every instrumentation configuration still agrees with the oracle on
// the planted bug (Check reports no divergence).
func TestMutantsPlantRealBugs(t *testing.T) {
	if n := oracleSiteCount(t, mutationFixture); n != 0 {
		t.Fatalf("fixture is not clean: %d oracle sites", n)
	}
	checker := New()
	for _, m := range []Mutation{{Kind: DropMemset, Index: 0}, {Kind: ShrinkCopyLen, Index: 0}} {
		mutated, ok := Apply(mutationFixture, m)
		if !ok {
			t.Fatalf("Apply(%v) failed", m)
		}
		if n := oracleSiteCount(t, mutated); n == 0 {
			t.Errorf("%v planted no bug (oracle empty)", m)
		}
		if div := checker.Check(mutated); div != nil {
			t.Errorf("sanitizers disagree on %v mutant: %v", m, div)
		}
	}
}

// TestRouteThroughVarargsPreservesCleanliness: vsum(1, e) is t = 0 + e,
// so routing a defined value through the varargs array must not
// introduce a warning or a divergence.
func TestRouteThroughVarargsPreservesCleanliness(t *testing.T) {
	m := Mutation{Kind: RouteThroughVarargs, Index: 0}
	mutated, ok := Apply(mutationFixture, m)
	if !ok {
		t.Fatalf("Apply(%v) failed", m)
	}
	if n := oracleSiteCount(t, mutated); n != 0 {
		t.Errorf("varargs routing introduced %d oracle site(s)", n)
	}
	if div := New().Check(mutated); div != nil {
		t.Errorf("divergence on varargs-routed program: %v", div)
	}
}

// TestCommittedMutantCorpusWarns keeps the committed per-kind mutant
// corpus (testdata/difftest/mutant-*.c) non-vacuous: each program must
// have a non-empty interpreter oracle — a real planted bug — with all
// four mutation kinds represented. TestCommittedRepros separately
// replays the same files through the full agreement contract.
func TestCommittedMutantCorpusWarns(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "difftest", "mutant-*.c"))
	if err != nil || len(files) < len(MutationKinds) {
		t.Fatalf("expected one corpus file per mutation kind, got %v (err %v)", files, err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if n := oracleSiteCount(t, string(data)); n == 0 {
				t.Error("corpus program plants no bug (oracle empty)")
			}
		})
	}
}

// TestSampleMutationsCoverage pins the sampler: deterministic per seed,
// round-robin across kinds so a low limit still touches every
// applicable kind, and a pass-through when the limit is off.
func TestSampleMutationsCoverage(t *testing.T) {
	all := Mutations(mutationFixture)
	if got := sampleMutations(mutationFixture, 7, 0); !reflect.DeepEqual(got, all) {
		t.Errorf("limit 0 did not return all mutations")
	}
	limited := sampleMutations(mutationFixture, 7, len(MutationKinds))
	if len(limited) != len(MutationKinds) {
		t.Fatalf("limit %d returned %d mutations", len(MutationKinds), len(limited))
	}
	kinds := map[MutationKind]bool{}
	for _, m := range limited {
		kinds[m.Kind] = true
	}
	for _, k := range MutationKinds {
		if !kinds[k] {
			t.Errorf("sampler with limit %d skipped kind %s", len(MutationKinds), k)
		}
	}
	again := sampleMutations(mutationFixture, 7, len(MutationKinds))
	if !reflect.DeepEqual(limited, again) {
		t.Error("sampler is not deterministic for a fixed seed")
	}
}

// TestMutationCampaignSmoke runs the sanitizer-vs-sanitizer sweep over
// generated programs: every mutant of every seed must agree with its
// own interpreter ground truth.
func TestMutationCampaignSmoke(t *testing.T) {
	seeds, perSeed := int64(24), 5
	if testing.Short() {
		seeds, perSeed = 6, 3
	}
	report, err := MutationCampaign(MutationCampaignOptions{
		CampaignOptions: CampaignOptions{Seeds: seeds, Parallel: 8, Minimize: true},
		MutantsPerSeed:  perSeed,
	})
	if err != nil {
		t.Fatalf("MutationCampaign: %v", err)
	}
	if report.Checked != seeds {
		t.Errorf("checked %d seeds, want %d", report.Checked, seeds)
	}
	if report.Mutants == 0 {
		t.Error("campaign replayed no mutants (sweep is vacuous)")
	}
	for _, f := range report.Findings {
		t.Errorf("seed %d mutation %s diverged: %v\n%s", f.Seed, f.Mutation, f.Divergence, f.Minimized)
	}
}

// TestMutationCampaignDeterministic: the report bytes are identical for
// any worker count.
func TestMutationCampaignDeterministic(t *testing.T) {
	run := func(parallel int) []byte {
		report, err := MutationCampaign(MutationCampaignOptions{
			CampaignOptions: CampaignOptions{From: 100, Seeds: 6, Parallel: parallel, Minimize: true},
			MutantsPerSeed:  3,
		})
		if err != nil {
			t.Fatalf("MutationCampaign(parallel=%d): %v", parallel, err)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("mutation campaign report depends on worker count:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
