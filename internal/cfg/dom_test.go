package cfg_test

import (
	"testing"

	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/lower"
	"github.com/valueflow/usher/internal/parser"
	"github.com/valueflow/usher/internal/types"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	irp, err := lower.Lower(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	return irp
}

// diamond builds a function with an if/else diamond.
func diamond(t *testing.T) *ir.Function {
	irp := build(t, `
int main(int c) {
  int x;
  if (c) { x = 1; } else { x = 2; }
  return x;
}`)
	return irp.FuncByName("main")
}

func TestDomTreeDiamond(t *testing.T) {
	fn := diamond(t)
	dom := cfg.NewDomTree(fn)
	entry := fn.Entry()

	byName := make(map[string]*ir.Block)
	for _, b := range fn.Blocks {
		byName[b.Name] = b
	}
	then, els, done := byName["if.then"], byName["if.else"], byName["if.done"]
	body := byName["body"]
	if then == nil || els == nil || done == nil || body == nil {
		t.Fatalf("blocks missing: %v", fn.Blocks)
	}
	if !dom.Dominates(entry, done) || !dom.Dominates(body, done) {
		t.Error("entry and body must dominate if.done")
	}
	if dom.Dominates(then, done) {
		t.Error("if.then must not dominate if.done")
	}
	if dom.Idom(done) != body {
		t.Errorf("idom(if.done) = %s, want body", dom.Idom(done))
	}
	if !dom.Dominates(done, done) {
		t.Error("dominance must be reflexive")
	}
}

func TestDominanceFrontiers(t *testing.T) {
	fn := diamond(t)
	dom := cfg.NewDomTree(fn)
	df := cfg.DominanceFrontiers(dom)
	byName := make(map[string]*ir.Block)
	for _, b := range fn.Blocks {
		byName[b.Name] = b
	}
	then, done := byName["if.then"], byName["if.done"]
	found := false
	for _, b := range df[then] {
		if b == done {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(if.then) = %v, want to contain if.done", df[then])
	}
	if len(df[done]) != 0 {
		t.Errorf("DF(if.done) = %v, want empty", df[done])
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	fn := diamond(t)
	rpo := cfg.ReversePostorder(fn)
	if len(rpo) == 0 || rpo[0] != fn.Entry() {
		t.Fatalf("rpo[0] = %v, want entry", rpo)
	}
	// every block's preds appear consistent: a block other than loop heads
	// appears after at least one pred
	seen := map[*ir.Block]int{}
	for i, b := range rpo {
		seen[b] = i
	}
	if len(seen) != len(rpo) {
		t.Error("duplicate blocks in RPO")
	}
}

func TestInstrDominates(t *testing.T) {
	fn := diamond(t)
	dom := cfg.NewDomTree(fn)
	body := fn.Blocks[1]
	if len(body.Instrs) < 2 {
		t.Skip("body too short")
	}
	a, b := body.Instrs[0], body.Instrs[1]
	if !dom.InstrDominates(a, b) {
		t.Error("earlier instruction must dominate later one in same block")
	}
	if dom.InstrDominates(b, a) {
		t.Error("later instruction must not dominate earlier one")
	}
	if dom.InstrDominates(a, a) {
		t.Error("instruction must not dominate itself")
	}
}
