package ir

import (
	"fmt"

	"github.com/valueflow/usher/internal/token"
)

// Instr is a single IR instruction. Every instruction has a per-function
// label (the paper's statement label l) and a parent block.
type Instr interface {
	// Label is the instruction's per-function id, stable across analyses.
	Label() int
	Parent() *Block
	// Pos is the originating source position (best effort).
	Pos() token.Pos
	// Defines returns the register defined by the instruction, or nil.
	Defines() *Register
	// Operands returns the value operands read by the instruction.
	Operands() []Value
	String() string

	setParent(b *Block, label int)
}

// instrBase carries the bookkeeping shared by all instructions.
type instrBase struct {
	blk   *Block
	label int
	pos   token.Pos
}

func (i *instrBase) Label() int     { return i.label }
func (i *instrBase) Parent() *Block { return i.blk }
func (i *instrBase) Pos() token.Pos { return i.pos }
func (i *instrBase) setParent(b *Block, label int) {
	i.blk = b
	i.label = label
}

// SetPos records the source position of the instruction.
func (i *instrBase) SetPos(p token.Pos) { i.pos = p }

func def(dst *Register, in Instr) *Register {
	if dst != nil {
		dst.Def = in
	}
	return dst
}

// Alloc allocates an abstract object and defines Dst as the address of its
// first cell. This is the paper's `x := alloc_T ρ` / `x := alloc_F ρ`
// (Obj.ZeroInit distinguishes the two). Stack allocations appear in entry
// blocks; heap allocations come from malloc/calloc.
type Alloc struct {
	instrBase
	Dst *Register
	Obj *Object
	// DynSize, when non-nil, is the runtime cell count of a heap
	// allocation whose size is not a compile-time constant. The static
	// model then uses Obj.Size=1 with the object collapsed.
	DynSize Value
}

// NewAlloc constructs an Alloc and binds Dst's definition.
func NewAlloc(dst *Register, obj *Object) *Alloc {
	a := &Alloc{Dst: dst, Obj: obj}
	obj.Site = a
	def(dst, a)
	return a
}

func (a *Alloc) Defines() *Register { return a.Dst }
func (a *Alloc) Operands() []Value {
	if a.DynSize != nil {
		return []Value{a.DynSize}
	}
	return nil
}
func (a *Alloc) String() string {
	init := "F"
	if a.Obj.ZeroInit {
		init = "T"
	}
	return fmt.Sprintf("%s = alloc_%s %s [%d cells, %s]", a.Dst, init, a.Obj, a.Obj.Size, a.Obj.Kind)
}

// Op is a binary operator.
type Op int

// Binary operators. Comparisons yield 0 or 1.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = [...]string{
	"add", "sub", "mul", "div", "rem", "shl", "shr", "and", "or", "xor",
	"eq", "ne", "lt", "le", "gt", "ge",
}

func (o Op) String() string { return opNames[o] }

// BinOp computes Dst = X op Y. This is the paper's `x := y ⊕ z`.
type BinOp struct {
	instrBase
	Dst  *Register
	Op   Op
	X, Y Value
}

// NewBinOp constructs a BinOp and binds Dst's definition.
func NewBinOp(dst *Register, op Op, x, y Value) *BinOp {
	b := &BinOp{Dst: dst, Op: op, X: x, Y: y}
	def(dst, b)
	return b
}

func (b *BinOp) Defines() *Register { return b.Dst }
func (b *BinOp) Operands() []Value  { return []Value{b.X, b.Y} }
func (b *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s, %s", b.Dst, b.Op, b.X, b.Y)
}

// Copy is `x := y` (or `x := n` when Src is a constant).
type Copy struct {
	instrBase
	Dst *Register
	Src Value
}

// NewCopy constructs a Copy and binds Dst's definition.
func NewCopy(dst *Register, src Value) *Copy {
	c := &Copy{Dst: dst, Src: src}
	def(dst, c)
	return c
}

func (c *Copy) Defines() *Register { return c.Dst }
func (c *Copy) Operands() []Value  { return []Value{c.Src} }
func (c *Copy) String() string     { return fmt.Sprintf("%s = %s", c.Dst, c.Src) }

// Load is `x := *y`: a critical operation on the pointer operand.
type Load struct {
	instrBase
	Dst  *Register
	Addr Value
}

// NewLoad constructs a Load and binds Dst's definition.
func NewLoad(dst *Register, addr Value) *Load {
	l := &Load{Dst: dst, Addr: addr}
	def(dst, l)
	return l
}

func (l *Load) Defines() *Register { return l.Dst }
func (l *Load) Operands() []Value  { return []Value{l.Addr} }
func (l *Load) String() string     { return fmt.Sprintf("%s = load %s", l.Dst, l.Addr) }

// Store is `*x := y`: a critical operation on the pointer operand.
type Store struct {
	instrBase
	Addr Value
	Val  Value
}

// NewStore constructs a Store.
func NewStore(addr, val Value) *Store { return &Store{Addr: addr, Val: val} }

func (s *Store) Defines() *Register { return nil }
func (s *Store) Operands() []Value  { return []Value{s.Addr, s.Val} }
func (s *Store) String() string     { return fmt.Sprintf("store %s, %s", s.Val, s.Addr) }

// MemSet fills Len cells starting at To with the value Val. Lowered from
// the memset builtin and from the zero-fill tail of string-initialized
// arrays. The To and Len operands are critical uses; Val is not: the
// runtime stores Val's shadow into the range, MSan-style, so setting
// memory to an undefined value is not itself an error.
type MemSet struct {
	instrBase
	To  Value
	Val Value
	Len Value
}

// NewMemSet constructs a MemSet.
func NewMemSet(to, val, length Value) *MemSet { return &MemSet{To: to, Val: val, Len: length} }

func (m *MemSet) Defines() *Register { return nil }
func (m *MemSet) Operands() []Value  { return []Value{m.To, m.Val, m.Len} }
func (m *MemSet) String() string {
	return fmt.Sprintf("memset %s, %s, %s", m.To, m.Val, m.Len)
}

// MemCopy copies Len cells from From to To, shadow included: copying an
// undefined cell is not an error, only a later critical use of the copy
// is. Lowered from memcpy and memmove (the interpreter buffers the
// source, so overlap is always safe), struct assignment, by-value struct
// arguments and returns, and string-literal array initialization. The
// To, From and Len operands are critical uses.
type MemCopy struct {
	instrBase
	To   Value
	From Value
	Len  Value
}

// NewMemCopy constructs a MemCopy.
func NewMemCopy(to, from, length Value) *MemCopy { return &MemCopy{To: to, From: from, Len: length} }

func (m *MemCopy) Defines() *Register { return nil }
func (m *MemCopy) Operands() []Value  { return []Value{m.To, m.From, m.Len} }
func (m *MemCopy) String() string {
	return fmt.Sprintf("memcopy %s, %s, %s", m.To, m.From, m.Len)
}

// FieldAddr computes Dst = &Base[Off] for a constant struct-field offset.
// The result is always a defined value when Base is.
type FieldAddr struct {
	instrBase
	Dst  *Register
	Base Value
	Off  int
}

// NewFieldAddr constructs a FieldAddr and binds Dst's definition.
func NewFieldAddr(dst *Register, base Value, off int) *FieldAddr {
	f := &FieldAddr{Dst: dst, Base: base, Off: off}
	def(dst, f)
	return f
}

func (f *FieldAddr) Defines() *Register { return f.Dst }
func (f *FieldAddr) Operands() []Value  { return []Value{f.Base} }
func (f *FieldAddr) String() string {
	return fmt.Sprintf("%s = fieldaddr %s, +%d", f.Dst, f.Base, f.Off)
}

// IndexAddr computes Dst = Base + Idx cells (array indexing or pointer
// arithmetic). The pointer analysis collapses any object flowing into
// Base, implementing the paper's arrays-as-a-whole treatment soundly.
type IndexAddr struct {
	instrBase
	Dst  *Register
	Base Value
	Idx  Value
}

// NewIndexAddr constructs an IndexAddr and binds Dst's definition.
func NewIndexAddr(dst *Register, base, idx Value) *IndexAddr {
	ia := &IndexAddr{Dst: dst, Base: base, Idx: idx}
	def(dst, ia)
	return ia
}

func (ia *IndexAddr) Defines() *Register { return ia.Dst }
func (ia *IndexAddr) Operands() []Value  { return []Value{ia.Base, ia.Idx} }
func (ia *IndexAddr) String() string {
	return fmt.Sprintf("%s = indexaddr %s, %s", ia.Dst, ia.Base, ia.Idx)
}

// Builtin identifies intrinsic callees.
type Builtin int

// Builtins. malloc/calloc never reach Call (they lower to Alloc), and
// neither do memset/memcpy/memmove (MemSet/MemCopy) or va_arg (a load
// from the packed argument array).
const (
	NotBuiltin Builtin = iota
	BuiltinFree
	BuiltinPrint
	BuiltinInput
)

func (b Builtin) String() string {
	switch b {
	case BuiltinFree:
		return "free"
	case BuiltinPrint:
		return "print"
	case BuiltinInput:
		return "input"
	default:
		return ""
	}
}

// Call invokes Callee (a FuncValue for direct calls, a register for
// indirect calls through function pointers) or a builtin. The callee
// operand of an indirect call and the arguments of print/free are critical
// uses.
type Call struct {
	instrBase
	Dst     *Register // nil for void calls
	Callee  Value     // nil when Builtin != NotBuiltin
	Args    []Value
	Builtin Builtin
}

// NewCall constructs a Call and binds Dst's definition.
func NewCall(dst *Register, callee Value, args []Value, builtin Builtin) *Call {
	c := &Call{Dst: dst, Callee: callee, Args: args, Builtin: builtin}
	def(dst, c)
	return c
}

// Direct returns the statically known callee, or nil for indirect calls
// and builtins.
func (c *Call) Direct() *Function {
	if fv, ok := c.Callee.(*FuncValue); ok {
		return fv.Fn
	}
	return nil
}

func (c *Call) Defines() *Register { return c.Dst }
func (c *Call) Operands() []Value {
	var ops []Value
	if c.Callee != nil {
		ops = append(ops, c.Callee)
	}
	return append(ops, c.Args...)
}

func (c *Call) String() string {
	callee := c.Builtin.String()
	if c.Builtin == NotBuiltin {
		callee = c.Callee.String()
	}
	s := fmt.Sprintf("call %s(", callee)
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	s += ")"
	if c.Dst != nil {
		s = fmt.Sprintf("%s = %s", c.Dst, s)
	}
	return s
}

// Ret returns from the function; Val is nil for void returns.
type Ret struct {
	instrBase
	Val Value
}

// NewRet constructs a Ret.
func NewRet(val Value) *Ret { return &Ret{Val: val} }

func (r *Ret) Defines() *Register { return nil }
func (r *Ret) Operands() []Value {
	if r.Val == nil {
		return nil
	}
	return []Value{r.Val}
}
func (r *Ret) String() string {
	if r.Val == nil {
		return "ret"
	}
	return "ret " + r.Val.String()
}

// Jump transfers control unconditionally.
type Jump struct {
	instrBase
	Target *Block
}

// NewJump constructs a Jump.
func NewJump(target *Block) *Jump { return &Jump{Target: target} }

func (j *Jump) Defines() *Register { return nil }
func (j *Jump) Operands() []Value  { return nil }
func (j *Jump) String() string     { return "jump " + j.Target.String() }

// Branch transfers control on Cond != 0: the paper's `if x goto l`, a
// critical operation on Cond.
type Branch struct {
	instrBase
	Cond Value
	Then *Block
	Else *Block
}

// NewBranch constructs a Branch.
func NewBranch(cond Value, then, els *Block) *Branch {
	return &Branch{Cond: cond, Then: then, Else: els}
}

func (b *Branch) Defines() *Register { return nil }
func (b *Branch) Operands() []Value  { return []Value{b.Cond} }
func (b *Branch) String() string {
	return fmt.Sprintf("branch %s, %s, %s", b.Cond, b.Then, b.Else)
}

// Phi merges values at a control-flow join; Vals[i] is the value flowing
// in from predecessor Preds[i]. Phis carry their predecessor blocks
// explicitly so CFG transformations (inlining, branch folding) cannot
// misalign them. Phis must stay at the front of their block.
type Phi struct {
	instrBase
	Dst   *Register
	Vals  []Value
	Preds []*Block
}

// NewPhi constructs a Phi and binds Dst's definition. vals and preds must
// be parallel.
func NewPhi(dst *Register, vals []Value, preds []*Block) *Phi {
	p := &Phi{Dst: dst, Vals: vals, Preds: preds}
	def(dst, p)
	return p
}

// IncomingIndex returns the operand index for predecessor pred, or -1.
func (p *Phi) IncomingIndex(pred *Block) int {
	for i, b := range p.Preds {
		if b == pred {
			return i
		}
	}
	return -1
}

// RemoveIncoming drops the operand arriving from pred.
func (p *Phi) RemoveIncoming(pred *Block) {
	i := p.IncomingIndex(pred)
	if i < 0 {
		return
	}
	p.Vals = append(p.Vals[:i], p.Vals[i+1:]...)
	p.Preds = append(p.Preds[:i], p.Preds[i+1:]...)
}

func (p *Phi) Defines() *Register { return p.Dst }
func (p *Phi) Operands() []Value  { return p.Vals }
func (p *Phi) String() string {
	s := fmt.Sprintf("%s = phi ", p.Dst)
	for i, v := range p.Vals {
		if i > 0 {
			s += ", "
		}
		pred := "?"
		if i < len(p.Preds) && p.Preds[i] != nil {
			pred = p.Preds[i].String()
		}
		s += fmt.Sprintf("[%s: %s]", pred, v)
	}
	return s
}

// IsCritical reports whether the instruction performs a critical operation
// (Definition 1 of the paper: loads, stores and branches) and returns the
// values whose definedness must be checked. Beyond the paper's TinyC, the
// callee of an indirect call and the arguments of print/free are also
// critical, mirroring MSan's checks at external calls.
func IsCritical(in Instr) (vals []Value, ok bool) {
	switch in := in.(type) {
	case *Load:
		return []Value{in.Addr}, true
	case *Store:
		return []Value{in.Addr}, true
	case *MemSet:
		// The filled value's shadow is copied, not checked.
		return []Value{in.To, in.Len}, true
	case *MemCopy:
		return []Value{in.To, in.From, in.Len}, true
	case *Branch:
		return []Value{in.Cond}, true
	case *Call:
		switch in.Builtin {
		case BuiltinPrint, BuiltinFree:
			return in.Args, true
		}
		if in.Direct() == nil && in.Callee != nil {
			return []Value{in.Callee}, true
		}
	}
	return nil, false
}
