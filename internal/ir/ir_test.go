package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs a minimal function with a diamond CFG by hand:
//
//	entry -> branch(c) -> left/right -> join -> ret phi
func buildDiamond() (*Program, *Function) {
	p := NewProgram()
	fn := &Function{Name: "f", HasBody: true}
	p.AddFunc(fn)
	c := fn.NewReg("c")
	fn.Params = append(fn.Params, c)

	entry := fn.NewBlock("entry")
	left := fn.NewBlock("left")
	right := fn.NewBlock("right")
	join := fn.NewBlock("join")

	entry.Append(NewBranch(c, left, right))
	l := fn.NewReg("l")
	left.Append(NewCopy(l, IntConst(1)))
	left.Append(NewJump(join))
	r := fn.NewReg("r")
	right.Append(NewCopy(r, IntConst(2)))
	right.Append(NewJump(join))
	x := fn.NewReg("x")
	join.Append(NewPhi(x, []Value{l, r}, []*Block{left, right}))
	join.Append(NewRet(x))
	ComputeCFG(fn)
	return p, fn
}

func TestVerifyAcceptsDiamond(t *testing.T) {
	p, _ := buildDiamond()
	if err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsDoubleDefine(t *testing.T) {
	p, fn := buildDiamond()
	// Redefine x in the entry block.
	x := fn.Blocks[3].Instrs[0].(*Phi).Dst
	bad := NewCopy(x, IntConst(9))
	fn.Blocks[0].InsertFront(bad)
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("verify = %v, want double-definition error", err)
	}
}

func TestVerifyRejectsUnterminatedBlock(t *testing.T) {
	p, fn := buildDiamond()
	join := fn.Blocks[3]
	join.Instrs = join.Instrs[:1] // drop the ret
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "not terminated") {
		t.Fatalf("verify = %v, want termination error", err)
	}
}

func TestVerifyRejectsMisplacedPhi(t *testing.T) {
	p, fn := buildDiamond()
	join := fn.Blocks[3]
	phi := join.Instrs[0]
	// Move the phi after the return.
	join.Instrs = []Instr{join.Instrs[1], phi}
	err := Verify(p)
	if err == nil {
		t.Fatal("verify accepted a phi behind a terminator")
	}
}

func TestVerifyRejectsWrongPhiPred(t *testing.T) {
	p, fn := buildDiamond()
	phi := fn.Blocks[3].Instrs[0].(*Phi)
	phi.Preds[0] = fn.Blocks[0] // entry is not a predecessor of join
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "not a predecessor") {
		t.Fatalf("verify = %v, want phi predecessor error", err)
	}
}

func TestPhiIncoming(t *testing.T) {
	_, fn := buildDiamond()
	phi := fn.Blocks[3].Instrs[0].(*Phi)
	left, right := fn.Blocks[1], fn.Blocks[2]
	if phi.IncomingIndex(left) != 0 || phi.IncomingIndex(right) != 1 {
		t.Fatalf("incoming indices wrong: %d/%d",
			phi.IncomingIndex(left), phi.IncomingIndex(right))
	}
	if phi.IncomingIndex(fn.Blocks[0]) != -1 {
		t.Fatal("entry should have no incoming index")
	}
	phi.RemoveIncoming(left)
	if len(phi.Vals) != 1 || phi.IncomingIndex(right) != 0 {
		t.Fatalf("RemoveIncoming broken: %v", phi)
	}
}

func TestComputeCFG(t *testing.T) {
	_, fn := buildDiamond()
	entry, left, right, join := fn.Blocks[0], fn.Blocks[1], fn.Blocks[2], fn.Blocks[3]
	if len(entry.Succs) != 2 || entry.Succs[0] != left || entry.Succs[1] != right {
		t.Fatalf("entry succs = %v", entry.Succs)
	}
	if len(join.Preds) != 2 {
		t.Fatalf("join preds = %v", join.Preds)
	}
	if len(entry.Preds) != 0 {
		t.Fatalf("entry preds = %v", entry.Preds)
	}
}

func TestPrintContainsStructure(t *testing.T) {
	p, _ := buildDiamond()
	g := p.NewObject("g", 2, ObjGlobal)
	g.ZeroInit = true
	p.Globals = append(p.Globals, g)
	txt := Print(p)
	for _, want := range []string{"global @g", "func f", "branch", "phi", "ret"} {
		if !strings.Contains(txt, want) {
			t.Errorf("print missing %q:\n%s", want, txt)
		}
	}
}

func TestObjectFields(t *testing.T) {
	p := NewProgram()
	s := p.NewObject("s", 3, ObjStack)
	if s.Collapsed() {
		t.Error("multi-cell object should start field-sensitive")
	}
	if s.NumFields() != 3 || s.FieldIndex(2) != 2 {
		t.Errorf("fields = %d, idx(2) = %d", s.NumFields(), s.FieldIndex(2))
	}
	s.Collapse()
	if !s.Collapsed() || s.NumFields() != 1 || s.FieldIndex(2) != 0 {
		t.Error("collapse did not flatten fields")
	}
	scalar := p.NewObject("x", 1, ObjStack)
	if !scalar.Collapsed() {
		t.Error("scalars are single-field by definition")
	}
	if scalar.FieldIndex(5) != 0 {
		t.Error("out-of-range field index should clamp to 0")
	}
}

func TestIsCritical(t *testing.T) {
	p := NewProgram()
	fn := &Function{Name: "f", HasBody: true}
	p.AddFunc(fn)
	x := fn.NewReg("x")
	addr := fn.NewReg("a")

	tests := []struct {
		in   Instr
		want bool
	}{
		{NewLoad(fn.NewReg(""), addr), true},
		{NewStore(addr, IntConst(1)), true},
		{NewBranch(x, nil, nil), true},
		{NewCall(nil, nil, []Value{x}, BuiltinPrint), true},
		{NewCall(nil, nil, []Value{addr}, BuiltinFree), true},
		{NewCall(fn.NewReg(""), nil, nil, BuiltinInput), false},
		{NewCopy(fn.NewReg(""), x), false},
		{NewBinOp(fn.NewReg(""), OpAdd, x, x), false},
		{NewJump(nil), false},
		{NewRet(x), false},
		{NewCall(fn.NewReg(""), x, nil, NotBuiltin), true}, // indirect call
		{NewCall(fn.NewReg(""), &FuncValue{Fn: fn}, nil, NotBuiltin), false},
	}
	for i, tt := range tests {
		if _, got := IsCritical(tt.in); got != tt.want {
			t.Errorf("case %d (%T): critical = %v, want %v", i, tt.in, got, tt.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpGe.String() != "ge" {
		t.Errorf("op names wrong: %s %s", OpAdd, OpGe)
	}
}

func TestBlockInsertAt(t *testing.T) {
	_, fn := buildDiamond()
	left := fn.Blocks[1]
	n := len(left.Instrs)
	cp := NewCopy(fn.NewReg("m"), IntConst(5))
	left.InsertAt(1, cp)
	if len(left.Instrs) != n+1 || left.Instrs[1] != cp {
		t.Fatalf("InsertAt misplaced: %v", left.Instrs)
	}
	if cp.Parent() != left {
		t.Fatal("parent not set")
	}
}

func TestRemoveInstrs(t *testing.T) {
	_, fn := buildDiamond()
	left := fn.Blocks[1]
	left.RemoveInstrs(func(in Instr) bool {
		_, isCopy := in.(*Copy)
		return isCopy
	})
	if len(left.Instrs) != 1 {
		t.Fatalf("instrs = %v", left.Instrs)
	}
}
