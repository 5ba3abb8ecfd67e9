package usher_test

import (
	"strings"
	"testing"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/passes"
)

const facadeSrc = `
int table[8];
int lookup(int i) { return table[i & 7]; }
int main() {
  for (int i = 0; i < 8; i++) { table[i] = i * i; }
  int s = 0;
  for (int i = 0; i < 20; i++) { s += lookup(i); }
  print(s);
  return s & 255;
}
`

func TestCompileAndRunNative(t *testing.T) {
	prog, err := usher.Compile("facade.c", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := usher.RunNative(prog, usher.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 {
		t.Fatalf("out = %v", res.Out)
	}
	if len(res.OracleWarnings) != 0 {
		t.Fatalf("warnings on clean program: %v", res.OracleWarnings)
	}
}

func TestCompileError(t *testing.T) {
	_, err := usher.Compile("bad.c", "int main() { return zz; }")
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("err = %v, want undefined-symbol error", err)
	}
}

func TestAnalyzeAllConfigs(t *testing.T) {
	prog := usher.MustCompile("facade.c", facadeSrc)
	var exits []int64
	for _, cfg := range usher.Configs {
		an := usher.MustAnalyze(prog, cfg)
		if an.Plan == nil || an.Gamma == nil || an.Graph == nil {
			t.Fatalf("[%v] incomplete analysis", cfg)
		}
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			t.Fatalf("[%v] %v", cfg, err)
		}
		exits = append(exits, res.Exit.Int)
		if len(res.ShadowWarnings) != 0 {
			t.Errorf("[%v] warnings: %v", cfg, res.ShadowWarnings)
		}
	}
	for i := 1; i < len(exits); i++ {
		if exits[i] != exits[0] {
			t.Errorf("exit codes diverge across configs: %v", exits)
		}
	}
}

func TestConfigStrings(t *testing.T) {
	want := map[usher.Config]string{
		usher.ConfigMSan:      "MSan",
		usher.ConfigUsherTL:   "UsherTL",
		usher.ConfigUsherTLAT: "UsherTL+AT",
		usher.ConfigUsherOptI: "UsherOptI",
		usher.ConfigUsherFull: "Usher",
	}
	for cfg, name := range want {
		if cfg.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(cfg), cfg.String(), name)
		}
	}
	if len(usher.Configs) != 5 {
		t.Errorf("Configs has %d entries, want 5", len(usher.Configs))
	}
}

func TestRunOptionsInput(t *testing.T) {
	prog := usher.MustCompile("in.c", `
int main() {
  int a = input();
  int b = input();
  print(a + b);
  return 0;
}`)
	an := usher.MustAnalyze(prog, usher.ConfigUsherFull)
	res, err := an.Run(usher.RunOptions{Input: func(i int) int64 { return int64(10 * (i + 1)) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 || res.Out[0] != 30 {
		t.Fatalf("out = %v, want [30]", res.Out)
	}
}

func TestRunArgs(t *testing.T) {
	prog := usher.MustCompile("args.c", `int main(int a, int b) { return a * b; }`)
	res, err := usher.RunNative(prog, usher.RunOptions{Args: []int64{6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit.Int != 42 {
		t.Fatalf("exit = %d, want 42", res.Exit.Int)
	}
}

func TestStaticStatsExposed(t *testing.T) {
	prog := usher.MustCompile("facade.c", facadeSrc)
	full := usher.MustAnalyze(prog, usher.ConfigMSan).StaticStats()
	guided := usher.MustAnalyze(prog, usher.ConfigUsherFull).StaticStats()
	if full.Props == 0 || full.Checks == 0 {
		t.Fatalf("MSan stats empty: %+v", full)
	}
	if guided.Props > full.Props || guided.Checks > full.Checks {
		t.Fatalf("guided exceeds full: %+v vs %+v", guided, full)
	}
}

func TestMaxStepsRespected(t *testing.T) {
	prog := usher.MustCompile("spin.c", `int main() { int s = 0; for (int i = 0; i < 1000000; i++) { s += i; } return s; }`)
	_, err := usher.RunNative(prog, usher.RunOptions{MaxSteps: 500})
	if err == nil {
		t.Fatal("expected step-budget error")
	}
}

func TestNoMainIsAnError(t *testing.T) {
	prog := usher.MustCompile("lib.c", `int helper(int x) { return x + 1; }`)
	if _, err := usher.RunNative(prog, usher.RunOptions{}); err == nil {
		t.Fatal("running a program without main must fail")
	}
	// Analysis of a main-less library still works.
	an := usher.MustAnalyze(prog, usher.ConfigUsherFull)
	if an.Plan == nil {
		t.Fatal("analysis failed on a library")
	}
}

func TestWrongArgCount(t *testing.T) {
	prog := usher.MustCompile("m.c", `int main(int a) { return a; }`)
	if _, err := usher.RunNative(prog, usher.RunOptions{}); err == nil {
		t.Fatal("missing main argument must fail")
	}
}

func TestEmptyMain(t *testing.T) {
	prog := usher.MustCompile("m.c", `int main() { return 0; }`)
	for _, cfg := range usher.ExtendedConfigs {
		an := usher.MustAnalyze(prog, cfg)
		res, err := an.Run(usher.RunOptions{})
		if err != nil {
			t.Fatalf("[%v] %v", cfg, err)
		}
		if cfg == usher.ConfigMSan {
			continue // full instrumentation relays even `return 0`
		}
		if res.ShadowProps != 0 || res.ShadowChecks != 0 {
			t.Errorf("[%v] empty main executed shadow work: %d/%d",
				cfg, res.ShadowProps, res.ShadowChecks)
		}
	}
}

func TestDeadFunctionsAnalyzed(t *testing.T) {
	// Unreachable functions still get plans and do not disturb main.
	prog := usher.MustCompile("m.c", `
int unused(int *p) { return p[3]; }
int main() { return 0; }`)
	an := usher.MustAnalyze(prog, usher.ConfigUsherFull)
	res, err := an.Run(usher.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShadowWarnings) != 0 {
		t.Errorf("warnings from dead code: %v", res.ShadowWarnings)
	}
}

func TestParseConfigAndLevel(t *testing.T) {
	for _, name := range []string{"usher", "Usher", "MSan", "msan", "UsherTL+AT", "tlat", "optiii", "Usher+OptIII"} {
		if _, err := usher.ParseConfig(name); err != nil {
			t.Errorf("ParseConfig(%q): %v", name, err)
		}
	}
	if _, err := usher.ParseConfig("turbo"); err == nil {
		t.Error("ParseConfig accepted an unknown name")
	}
	for _, name := range []string{"O0", "o0+im", "O1", "O2"} {
		if _, err := passes.ParseLevel(name); err != nil {
			t.Errorf("ParseLevel(%q): %v", name, err)
		}
	}
	if _, err := passes.ParseLevel("O9"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}
