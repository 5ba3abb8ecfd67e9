package usher_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/snapshot"
	"github.com/valueflow/usher/internal/stats"
	"github.com/valueflow/usher/internal/workload"
)

// These tests pin the snapshot warm-start contract end to end:
//
//   - a warm-started session produces plans with fingerprints identical
//     to the cold solve's, for every configuration the snapshot carries;
//   - the warm session runs NO analysis pass — verified through the
//     per-pass stats counters, which a warm run must not touch for
//     pointer, memssa, vfg, resolve, optII or plan;
//   - stale and corrupted snapshot files surface as errors from the
//     load, and the documented fallback (cold solve) still yields the
//     correct results.

// warmTestSource returns the profile used for the warm-start tests:
// the solver-large MiniC workload, or its small sibling under -short.
func warmTestSource(t *testing.T) (string, string) {
	t.Helper()
	p := workload.LargeProfiles[2] // solver-large
	if testing.Short() {
		p = workload.LargeProfiles[0]
	}
	return p.Name, workload.GenerateLarge(p)
}

func compileWarm(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	prog, err := usher.Compile(name+".c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := passes.Apply(prog, passes.O0IM); err != nil {
		t.Fatalf("passes: %v", err)
	}
	return prog
}

// passRuns flattens a stats snapshot to pass→total runs.
func passRuns(sc *stats.Collector) map[string]int64 {
	runs := make(map[string]int64)
	for _, ps := range sc.Snapshot() {
		runs[ps.Pass] += ps.Runs
	}
	return runs
}

func TestSnapshotWarmStartSkipsPasses(t *testing.T) {
	name, src := warmTestSource(t)
	dir := t.TempDir()
	cfgs := usher.ExtendedConfigs

	// Cold leg: solve, analyze every configuration, persist.
	coldProg := compileWarm(t, name, src)
	coldSC := stats.New()
	cold := usher.NewSessionObserved(coldProg, coldSC)
	coldAnalyses, err := cold.AnalyzeAll(cfgs)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	coldFPs := make(map[usher.Config]string, len(cfgs))
	for i, cfg := range cfgs {
		coldFPs[cfg] = coldAnalyses[i].Plan.Fingerprint()
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := snapshot.Save(dir, coldProg, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	if runs := passRuns(coldSC); runs["pointer"] != 1 || runs["vfg"] == 0 {
		t.Fatalf("cold run did not exercise the pipeline: %v", runs)
	}

	// Warm leg: fresh compile, load, seed, analyze — no pass may run.
	warmProg := compileWarm(t, name, src)
	loaded, err := snapshot.Load(dir, warmProg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	warmSC := stats.New()
	warm := usher.NewSessionObserved(warmProg, warmSC)
	seeded, err := warm.WarmStart(loaded)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if want := 1 + len(cfgs); seeded != want {
		t.Errorf("seeded %d artifacts, want %d (pointer + %d plans)", seeded, want, len(cfgs))
	}
	for _, cfg := range cfgs {
		a, err := warm.Analyze(cfg)
		if err != nil {
			t.Fatalf("warm analyze %s: %v", cfg, err)
		}
		if got := a.Plan.Fingerprint(); got != coldFPs[cfg] {
			t.Errorf("%s: warm plan fingerprint diverges from cold solve", cfg)
		}
		if a.Pointer == nil {
			t.Errorf("%s: warm analysis carries no pointer result", cfg)
		}
	}
	runs := passRuns(warmSC)
	for _, pass := range []string{"pointer", "memssa", "vfg", "resolve", "optII", "plan"} {
		if runs[pass] != 0 {
			t.Errorf("warm start ran pass %q %d times, want 0 (stats: %v)", pass, runs[pass], runs)
		}
	}
	if runs["snapshot"] != 1 {
		t.Errorf("warm start recorded %d snapshot samples, want 1", runs["snapshot"])
	}
	for _, ps := range warmSC.Snapshot() {
		if ps.Pass == "snapshot" {
			if got, want := ps.Counters["plans_loaded"], int64(len(cfgs)); got != want {
				t.Errorf("snapshot sample counts %d plans loaded, want %d", got, want)
			}
		}
	}
}

// TestSnapshotWarmStartRuns pins that a warm-started analysis is
// actually executable: the interpreter consumes only the plan, and the
// warm plan must drive it to the very same warnings as the cold one.
func TestSnapshotWarmStartRuns(t *testing.T) {
	p, ok := workload.ByName("equake")
	if !ok {
		t.Fatal("no workload equake")
	}
	src := workload.Generate(p)
	dir := t.TempDir()

	runOf := func(a *usher.Analysis) string {
		res, err := a.Run(usher.RunOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := ""
		for _, w := range res.ShadowWarnings {
			out += w.String() + "\n"
		}
		return out
	}

	coldProg := compileWarm(t, p.Name, src)
	cold := usher.NewSession(coldProg)
	coldA, err := cold.Analyze(usher.ConfigUsherFull)
	if err != nil {
		t.Fatal(err)
	}
	coldW := runOf(coldA)
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(dir, coldProg, snap); err != nil {
		t.Fatal(err)
	}

	warmProg := compileWarm(t, p.Name, src)
	loaded, err := snapshot.Load(dir, warmProg)
	if err != nil {
		t.Fatal(err)
	}
	warm := usher.NewSession(warmProg)
	if _, err := warm.WarmStart(loaded); err != nil {
		t.Fatal(err)
	}
	warmA, err := warm.Analyze(usher.ConfigUsherFull)
	if err != nil {
		t.Fatal(err)
	}
	if warmW := runOf(warmA); warmW != coldW {
		t.Errorf("warm run warnings diverge from cold:\ncold:\n%s\nwarm:\n%s", coldW, warmW)
	}
}

// TestSnapshotStaleAndCorruptFallBack pins the failure path a driver
// follows: a stale, old-format or corrupted snapshot errors out of the
// load, and the cold solve that follows still produces the correct plan.
func TestSnapshotStaleAndCorruptFallBack(t *testing.T) {
	pa, _ := workload.ByName("equake")
	pb, _ := workload.ByName("art")
	if pa.Name == "" || pb.Name == "" {
		t.Fatal("missing workloads")
	}
	dir := t.TempDir()

	progA := compileWarm(t, pa.Name, workload.Generate(pa))
	sessA := usher.NewSession(progA)
	if _, err := sessA.Analyze(usher.ConfigUsherFull); err != nil {
		t.Fatal(err)
	}
	snapA, err := sessA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pathA, err := snapshot.Save(dir, progA, snapA)
	if err != nil {
		t.Fatal(err)
	}

	// Stale: program B's keyed path holds program A's snapshot.
	progB := compileWarm(t, pb.Name, workload.Generate(pb))
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot.Path(dir, progB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(dir, progB); !errors.Is(err, snapshot.ErrStale) {
		t.Fatalf("stale load: got %v, want ErrStale", err)
	}

	// Version 1: the same file as format version 1 with a trailing VSUM
	// section (a resolved Γ, which version 2 dropped) must error out of
	// the load, never panic.
	vsum := []byte("\x04full\x40\x01\x01\x00\x00\x00\x00\x00\x00\x00")
	v1 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	v1 = append(v1, "VSUM"...)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(vsum)))
	v1 = append(v1, vsum...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(vsum))
	if err := os.WriteFile(pathA, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(dir, progA); err == nil {
		t.Fatal("version-1 snapshot with a VSUM section loaded without error")
	}

	// Corrupt: damage A's file in place; the load must error (not
	// panic, not succeed), and the cold fallback must still work.
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(pathA, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(dir, progA); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}

	coldFP := usher.MustAnalyze(compileWarm(t, pa.Name, workload.Generate(pa)), usher.ConfigUsherFull).Plan.Fingerprint()
	wantFP := snapA.Plans[0].Plan.Fingerprint()
	if coldFP != wantFP {
		t.Errorf("cold fallback plan diverges from the snapshotted one")
	}
}

// TestSnapshotWarmStartWidenedConstructs pins the warm-start contract
// for the widened MiniC surface specifically: a program built around
// string literals, struct assignment by value, varargs and the memory
// intrinsics must round-trip through Save/Load with bit-identical plan
// fingerprints for every configuration, with no analysis pass re-run.
// (The workload-driven warm tests above also contain these constructs,
// but diffuse inside large generated programs; this one fails crisply
// if any single construct stops snapshotting.)
func TestSnapshotWarmStartWidenedConstructs(t *testing.T) {
	const src = `
char greeting[16] = "warm";
int vsum(int n, ...) {
  int t = 0;
  for (int i = 0; i < n; i++) { t += va_arg(i); }
  return t;
}
struct Pair { int x; int y; };
struct Pair mk(int x) { struct Pair p; p.x = x; p.y = x + 1; return p; }
int main() {
  char buf[16];
  memset(buf, 0, 12);
  memcpy(buf, greeting, 4);
  struct Pair a = mk(2);
  struct Pair b = a;
  b.y = vsum(3, a.x, b.x, buf[2]);
  int out = b.y + buf[15];
  print(out);
  return 0;
}
`
	dir := t.TempDir()
	cfgs := usher.ExtendedConfigs

	coldProg := compileWarm(t, "widened", src)
	cold := usher.NewSession(coldProg)
	coldAnalyses, err := cold.AnalyzeAll(cfgs)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := snapshot.Save(dir, coldProg, snap); err != nil {
		t.Fatalf("save: %v", err)
	}

	warmProg := compileWarm(t, "widened", src)
	loaded, err := snapshot.Load(dir, warmProg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	warmSC := stats.New()
	warm := usher.NewSessionObserved(warmProg, warmSC)
	if _, err := warm.WarmStart(loaded); err != nil {
		t.Fatalf("warm start: %v", err)
	}
	for i, cfg := range cfgs {
		a, err := warm.Analyze(cfg)
		if err != nil {
			t.Fatalf("warm analyze %s: %v", cfg, err)
		}
		if got, want := a.Plan.Fingerprint(), coldAnalyses[i].Plan.Fingerprint(); got != want {
			t.Errorf("%s: warm plan fingerprint diverges from cold solve on widened constructs", cfg)
		}
	}
	runs := passRuns(warmSC)
	for _, pass := range []string{"pointer", "memssa", "vfg", "resolve", "optII", "plan"} {
		if runs[pass] != 0 {
			t.Errorf("warm start ran pass %q %d times, want 0", pass, runs[pass])
		}
	}
}
