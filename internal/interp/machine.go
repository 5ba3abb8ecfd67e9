package interp

import (
	"fmt"
	"sort"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/token"
)

// Options configures an execution.
type Options struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps int64
	// MaxDepth bounds the call stack (0 = default).
	MaxDepth int
	// MaxCells bounds the total number of memory cells allocated over the
	// whole execution (0 = default). Without it a single huge allocation
	// — int a[200000000] — makes the interpreter swallow gigabytes before
	// a single instruction runs.
	MaxCells int64
	// Input supplies the value returned by the i-th call to input().
	// Defaults to a fixed deterministic sequence.
	Input func(i int) int64
	// Shadow, when non-nil, enables shadow execution under an
	// instrumentation plan (see shadow.go).
	Shadow *ShadowConfig
}

// Warning records a use of an undefined value at a critical operation.
// Warnings are deduplicated per site (function + label), matching how
// dynamic detectors report each offending source location once.
type Warning struct {
	Fn    string
	Label int
	Pos   token.Pos
	What  string
}

// Site identifies a warning site.
type Site struct {
	Fn    string
	Label int
}

func (w Warning) String() string {
	return fmt.Sprintf("%s: use of undefined value in %s (l%d): %s", w.Pos, w.Fn, w.Label, w.What)
}

// Result is the outcome of an execution.
type Result struct {
	// Exit is main's return value.
	Exit Value
	// Out collects the arguments of print calls, in order.
	Out []int64
	// Steps is the number of executed native instructions.
	Steps int64
	// OracleWarnings are the ground-truth undefined-value uses at critical
	// operations, deduplicated by site.
	OracleWarnings []Warning
	// ShadowWarnings are the sites flagged by the instrumented checks
	// (empty when running natively). A sound instrumentation reports every
	// oracle site that its checks cover.
	ShadowWarnings []Warning
	// ShadowProps and ShadowChecks count dynamically executed shadow
	// propagations and checks (zero when running natively).
	ShadowProps  int64
	ShadowChecks int64
	// ShadowViolations record instrumentation soundness bugs: reads of
	// shadow state that the plan never initialized. A correct plan
	// produces none (the paper's §3.4 well-definedness guarantee).
	ShadowViolations []string
	// Diags are non-fatal anomalies (double free, division by zero).
	Diags []string
}

// OracleSites returns the oracle warning sites as a set.
func (r *Result) OracleSites() map[Site]bool {
	s := make(map[Site]bool, len(r.OracleWarnings))
	for _, w := range r.OracleWarnings {
		s[Site{w.Fn, w.Label}] = true
	}
	return s
}

// ShadowSites returns the instrumented warning sites as a set.
func (r *Result) ShadowSites() map[Site]bool {
	s := make(map[Site]bool, len(r.ShadowWarnings))
	for _, w := range r.ShadowWarnings {
		s[Site{w.Fn, w.Label}] = true
	}
	return s
}

// canonicalize puts the warning lists into their canonical order —
// sorted by (Fn, Pos, Label) with per-site duplicates removed — so that
// two runs reporting the same sites yield bit-identical warning slices
// regardless of the execution order that produced them. Run applies it
// on every exit path, including trap returns with a partial result.
func (r *Result) canonicalize() {
	r.OracleWarnings = canonicalWarnings(r.OracleWarnings)
	r.ShadowWarnings = canonicalWarnings(r.ShadowWarnings)
}

func canonicalWarnings(ws []Warning) []Warning {
	if len(ws) < 2 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Label < b.Label
	})
	// Collection already dedupes per (Fn, Label); this guards the
	// canonical form against identical sites reached via distinct paths.
	out := ws[:1]
	for _, w := range ws[1:] {
		last := out[len(out)-1]
		if w.Fn == last.Fn && w.Label == last.Label {
			continue
		}
		out = append(out, w)
	}
	return out
}

// RuntimeError is a trap: invalid dereference, stack overflow, fuel
// exhaustion. The partial Result is still available.
type RuntimeError struct {
	Msg    string
	Fn     string
	Pos    token.Pos
	Result *Result
}

func (e *RuntimeError) Error() string {
	s := "runtime error"
	if e.Fn != "" {
		s += " in " + e.Fn
	}
	s += ": " + e.Msg
	if e.Pos.IsValid() {
		return e.Pos.String() + ": " + s
	}
	return s
}

// Machine executes one program.
type Machine struct {
	prog    *ir.Program
	opts    Options
	globals map[*ir.Object]*Instance
	// code holds the code instance of every function whose address the
	// run has taken, so that function values compare by identity.
	code      map[*ir.Function]*Instance
	res       *Result
	oracle    map[Site]bool
	shadowM   *shadowMachine
	nextSeq   int
	ninput    int
	depth     int
	cellsLeft int64

	// frames[d] is the activation record of every call at depth d+1,
	// reused from one call to the next so that a call allocates nothing.
	frames []*frame

	// curFn and curIn track the instruction being executed, so that an
	// unexpected panic can be wrapped with its location (see trap).
	curFn *ir.Function
	curIn ir.Instr

	// phi evaluation scratch, reused across blocks (consumed before any
	// nested call can start).
	phiVals      []Value
	phiDefs      []bool
	phiShadows   []sbit
	phiShadowSet []bool
}

// Run executes fn (by name, usually "main") with the given arguments and
// returns the result. A *RuntimeError carries the partial result.
func Run(prog *ir.Program, fnName string, args []Value, opts Options) (*Result, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 8192
	}
	if opts.MaxCells == 0 {
		opts.MaxCells = 1 << 24
	}
	if opts.Input == nil {
		opts.Input = func(i int) int64 { return int64((i*2654435761 + 12345) % 1000) }
	}
	m := &Machine{
		prog:      prog,
		opts:      opts,
		globals:   make(map[*ir.Object]*Instance),
		code:      make(map[*ir.Function]*Instance),
		res:       &Result{},
		oracle:    make(map[Site]bool),
		cellsLeft: opts.MaxCells,
	}
	fn := prog.FuncByName(fnName)
	if fn == nil || !fn.HasBody {
		return m.res, fmt.Errorf("interp: no function %q with a body", fnName)
	}
	if len(args) != len(fn.Params) {
		return m.res, fmt.Errorf("interp: %s takes %d args, got %d", fnName, len(fn.Params), len(args))
	}
	var exit Value
	// Global allocation runs under the trap too: an over-budget global
	// (int a[200000000]) traps like any other allocation instead of
	// exhausting host memory before execution starts.
	err := m.trap(func() {
		for _, g := range prog.Globals {
			inst := m.newInstance(g, g.Size)
			if g.InitVals != nil {
				for i, v := range g.InitVals {
					if i < len(inst.Cells) {
						inst.Cells[i].Val = IntVal(v)
					}
				}
			} else if g.Size > 0 {
				inst.Cells[0].Val = IntVal(g.InitVal)
			}
			m.globals[g] = inst
		}
		if opts.Shadow != nil {
			m.shadowM = newShadowMachine(m, opts.Shadow)
		}
		fr := m.frameFor(fn)
		for i, p := range fn.Params {
			fr.set(p, args[i], true)
		}
		exit, _ = m.exec(fr)
	})
	m.res.Exit = exit
	m.res.canonicalize()
	if err != nil {
		return m.res, err
	}
	return m.res, nil
}

// trap converts panics raised during execution into *RuntimeError.
// Expected traps arrive as *RuntimeError (via fail). Anything else is an
// interpreter bug; instead of re-panicking bare it is wrapped with the
// current function and instruction label so the report is actionable.
func (m *Machine) trap(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(*RuntimeError)
			if !ok {
				me = &RuntimeError{Msg: fmt.Sprintf("internal error: %v", r)}
				if m.curFn != nil {
					me.Fn = m.curFn.Name
				}
				if m.curIn != nil {
					me.Msg = fmt.Sprintf("internal error at l%d (%s): %v", m.curIn.Label(), m.curIn, r)
					me.Pos = m.curIn.Pos()
				}
			}
			me.Result = m.res
			err = me
		}
	}()
	f()
	return nil
}

func (m *Machine) fail(fn *ir.Function, pos token.Pos, format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...), Fn: fn.Name, Pos: pos})
}

func (m *Machine) newInstance(obj *ir.Object, size int) *Instance {
	if int64(size) > m.cellsLeft {
		panic(&RuntimeError{Msg: fmt.Sprintf(
			"allocation of %d cells for %s exceeds the remaining memory budget (%d of %d cells)",
			size, obj.Name, m.cellsLeft, m.opts.MaxCells)})
	}
	m.cellsLeft -= int64(size)
	inst := &Instance{Obj: obj, Cells: make([]Cell, size), Seq: m.nextSeq}
	m.nextSeq++
	if obj.ZeroInit {
		for i := range inst.Cells {
			inst.Cells[i].Defined = true
		}
	}
	return inst
}

func (m *Machine) oracleWarn(fn *ir.Function, in ir.Instr, what string) {
	site := Site{fn.Name, in.Label()}
	if m.oracle[site] {
		return
	}
	m.oracle[site] = true
	m.res.OracleWarnings = append(m.res.OracleWarnings,
		Warning{Fn: fn.Name, Label: in.Label(), Pos: in.Pos(), What: what})
}

func (m *Machine) diag(format string, args ...any) {
	if len(m.res.Diags) < 100 {
		m.res.Diags = append(m.res.Diags, fmt.Sprintf(format, args...))
	}
}

// frame is one activation record. The machine keeps one per call depth
// and reuses it for every call at that depth: its files are sized for
// the callee on entry and cleared on return, so a frame waiting for its
// next call holds no pointers that could keep dead instances alive.
type frame struct {
	fn   *ir.Function
	regs []Value
	defs []bool // ground-truth definedness per register
	// stacks holds this activation's stack instances; after inlining an
	// allocation site may execute several times per activation (e.g.
	// inside a loop), so every instance is kept and dies at return.
	stacks []*Instance
	// shadowFrame is the activation's shadow state under a plan.
	shadowFrame
}

// eval resolves an operand within a frame, returning its value and
// ground-truth definedness.
func (m *Machine) eval(fr *frame, v ir.Value) (Value, bool) {
	switch v := v.(type) {
	case *ir.Const:
		return IntVal(v.Val), true
	case *ir.FuncValue:
		return Value{Kind: KindFunc, Inst: m.codeOf(v.Fn)}, true
	case *ir.GlobalAddr:
		return addrVal(m.globals[v.Obj], 0), true
	case *ir.Register:
		return fr.regs[v.ID], fr.defs[v.ID]
	}
	m.fail(fr.fn, token.Pos{}, "unknown operand %T", v)
	return Value{}, false
}

// codeOf returns fn's code instance, making it on first use. Code
// instances take no sequence number and no cells, so taking a function's
// address leaves every address and memory figure of the run unchanged.
func (m *Machine) codeOf(fn *ir.Function) *Instance {
	inst := m.code[fn]
	if inst == nil {
		inst = &Instance{fn: fn}
		m.code[fn] = inst
	}
	return inst
}

func (fr *frame) set(r *ir.Register, v Value, defined bool) {
	fr.regs[r.ID] = v
	fr.defs[r.ID] = defined
}

// frameFor returns the activation record of the next call depth, sized
// for fn and holding no values yet; the caller fills in the parameters
// and starts it with exec.
func (m *Machine) frameFor(fn *ir.Function) *frame {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, &frame{})
	}
	fr := m.frames[m.depth]
	n := fn.NumRegs()
	if cap(fr.regs) < n {
		fr.regs, fr.defs = make([]Value, n), make([]bool, n)
		if m.shadowM != nil {
			fr.sregs = make([]sbit, n)
		}
	}
	fr.regs, fr.defs = fr.regs[:n], fr.defs[:n]
	if m.shadowM != nil {
		fr.sregs = fr.sregs[:n]
		if fr.fn != fn {
			fr.fp, fr.items = m.shadowM.planOf(fn)
		}
	}
	fr.fn = fn
	return fr
}

// exec runs the activation prepared by frameFor and returns its result
// value and definedness. A trap unwinds past it without restoring the
// depth or the frame, which is safe because a trap ends the run.
func (m *Machine) exec(fr *frame) (Value, bool) {
	m.depth++
	if m.depth > m.opts.MaxDepth {
		m.fail(fr.fn, fr.fn.Pos, "call stack overflow (depth %d)", m.depth)
	}
	if m.shadowM != nil {
		m.shadowM.enter(fr)
	}

	block := fr.fn.Entry()
	var prev *ir.Block
	for {
		next, retV, retD, returned := m.execBlock(fr, block, prev)
		if returned {
			// Stack storage dies with the activation; later accesses
			// through escaped pointers trap, matching C's undefined
			// behaviour and keeping the static analysis honest.
			for _, inst := range fr.stacks {
				inst.Freed = true
			}
			clear(fr.regs)
			clear(fr.defs)
			clear(fr.sregs)
			clear(fr.stacks)
			fr.stacks = fr.stacks[:0]
			m.depth--
			return retV, retD
		}
		prev, block = block, next
	}
}

// execBlock runs one basic block. It returns the successor or the return
// value.
func (m *Machine) execBlock(fr *frame, b *ir.Block, prev *ir.Block) (next *ir.Block, retV Value, retD bool, returned bool) {
	// Phis read their inputs simultaneously on entry. The scratch buffers
	// live on the machine: they are fully consumed before any instruction
	// (and hence any nested call) executes.
	phiVals := m.phiVals[:0]
	phiDefs := m.phiDefs[:0]
	phiShadows := m.phiShadows[:0]
	phiShadowSet := m.phiShadowSet[:0]
	nphis := 0
	for _, in := range b.Instrs {
		phi, ok := in.(*ir.Phi)
		if !ok {
			break
		}
		idx := phi.IncomingIndex(prev)
		if idx < 0 {
			m.fail(fr.fn, phi.Pos(), "phi %s has no incoming value from %s", phi, prev)
		}
		v, d := m.eval(fr, phi.Vals[idx])
		phiVals = append(phiVals, v)
		phiDefs = append(phiDefs, d)
		if m.shadowM != nil {
			s, ok := m.shadowM.phiShadow(fr, phi, idx)
			phiShadows = append(phiShadows, s)
			phiShadowSet = append(phiShadowSet, ok)
		}
		nphis++
	}
	m.phiVals, m.phiDefs = phiVals, phiDefs
	m.phiShadows, m.phiShadowSet = phiShadows, phiShadowSet
	for i := 0; i < nphis; i++ {
		phi := b.Instrs[i].(*ir.Phi)
		m.step(fr, phi)
		fr.set(phi.Dst, phiVals[i], phiDefs[i])
		if m.shadowM != nil && phiShadowSet[i] {
			m.shadowM.setPhiShadow(fr, phi, phiShadows[i])
		}
	}

	for _, in := range b.Instrs[nphis:] {
		m.step(fr, in)
		switch in := in.(type) {
		case *ir.Alloc:
			m.execAlloc(fr, in)
		case *ir.Copy:
			v, d := m.eval(fr, in.Src)
			fr.set(in.Dst, v, d)
		case *ir.BinOp:
			m.execBinOp(fr, in)
		case *ir.Load:
			addr := m.checkAddr(fr, in, in.Addr, "load")
			cell := &addr.Inst.Cells[addr.Int]
			fr.set(in.Dst, cell.Val, cell.Defined)
		case *ir.Store:
			addr := m.checkAddr(fr, in, in.Addr, "store")
			v, d := m.eval(fr, in.Val)
			addr.Inst.Cells[addr.Int] = Cell{Val: v, Defined: d}
		case *ir.MemSet:
			m.execMemSet(fr, in)
		case *ir.MemCopy:
			m.execMemCopy(fr, in)
		case *ir.FieldAddr:
			base, d := m.eval(fr, in.Base)
			if base.Kind != KindAddr {
				m.fail(fr.fn, in.Pos(), "fieldaddr of non-pointer %s", base)
			}
			fr.set(in.Dst, addrVal(base.Inst, base.Int+int64(in.Off)), d)
		case *ir.IndexAddr:
			base, bd := m.eval(fr, in.Base)
			idx, id := m.eval(fr, in.Idx)
			if base.Kind != KindAddr {
				m.fail(fr.fn, in.Pos(), "indexaddr of non-pointer %s", base)
			}
			if idx.Kind != KindInt {
				m.fail(fr.fn, in.Pos(), "indexaddr with non-integer index %s", idx)
			}
			fr.set(in.Dst, addrVal(base.Inst, base.Int+idx.Int), bd && id)
		case *ir.Call:
			m.execCall(fr, in)
		case *ir.Ret:
			if m.shadowM != nil {
				m.shadowM.after(fr, in)
			}
			if in.Val == nil {
				return nil, IntVal(0), true, true
			}
			v, d := m.eval(fr, in.Val)
			return nil, v, d, true
		case *ir.Jump:
			if m.shadowM != nil {
				m.shadowM.after(fr, in)
			}
			return in.Target, Value{}, false, false
		case *ir.Branch:
			cond, d := m.eval(fr, in.Cond)
			if !d {
				m.oracleWarn(fr.fn, in, "branch on undefined value")
			}
			if m.shadowM != nil {
				m.shadowM.after(fr, in)
			}
			if cond.Truthy() {
				return in.Then, Value{}, false, false
			}
			return in.Else, Value{}, false, false
		default:
			m.fail(fr.fn, in.Pos(), "unknown instruction %T", in)
		}
		if m.shadowM != nil {
			m.shadowM.after(fr, in)
		}
	}
	m.fail(fr.fn, token.Pos{}, "block %s fell through without terminator", b)
	return nil, Value{}, false, false
}

func (m *Machine) step(fr *frame, in ir.Instr) {
	m.curFn, m.curIn = fr.fn, in
	m.res.Steps++
	if m.res.Steps > m.opts.MaxSteps {
		m.fail(fr.fn, in.Pos(), "step budget exhausted (%d)", m.opts.MaxSteps)
	}
}

// checkAddr evaluates a pointer operand of a critical memory operation,
// recording oracle warnings for undefined pointers and trapping on invalid
// accesses. The address it returns is non-null and in bounds.
func (m *Machine) checkAddr(fr *frame, in ir.Instr, op ir.Value, what string) Value {
	a, d := m.eval(fr, op)
	if !d {
		m.oracleWarn(fr.fn, in, what+" through undefined pointer")
	}
	if a.Kind != KindAddr || a.isNull() {
		m.fail(fr.fn, in.Pos(), "%s through invalid pointer %s", what, a)
	}
	if a.Inst.Freed {
		m.fail(fr.fn, in.Pos(), "%s through freed memory %s", what, a)
	}
	if a.Int < 0 || a.Int >= int64(len(a.Inst.Cells)) {
		m.fail(fr.fn, in.Pos(), "%s out of bounds: %s (size %d)", what, a, len(a.Inst.Cells))
	}
	return a
}

// rangeLen evaluates the length operand of a memory intrinsic. An
// undefined length is an oracle warning (it is a critical use); a
// non-integer or negative length traps.
func (m *Machine) rangeLen(fr *frame, in ir.Instr, op ir.Value, what string) int {
	v, d := m.eval(fr, op)
	if !d {
		m.oracleWarn(fr.fn, in, what+" with undefined length")
	}
	if v.Kind != KindInt {
		m.fail(fr.fn, in.Pos(), "%s with non-integer length %s", what, v)
	}
	if v.Int < 0 {
		m.fail(fr.fn, in.Pos(), "%s with negative length %d", what, v.Int)
	}
	return int(v.Int)
}

// checkRange validates that [a, a+n) lies inside a's instance BEFORE any
// cell is touched, so adversarial lengths trap immediately instead of
// writing until they run off the object. After it passes, the intrinsic's
// work is bounded by the instance size (itself bounded by MaxCells).
func (m *Machine) checkRange(fr *frame, in ir.Instr, a Value, n int, what string) {
	if n > 0 && int(a.Int)+n > len(a.Inst.Cells) {
		m.fail(fr.fn, in.Pos(), "%s out of bounds: %s + %d cells (size %d)", what, a, n, len(a.Inst.Cells))
	}
}

// chargeCells charges the step budget for an intrinsic's bulk work: a
// memset/memcopy over n cells costs n steps on top of the instruction
// itself. Without this, a loop of whole-object intrinsics over a
// collapsed (>4096-cell) allocation does MaxSteps×range cell writes
// under a MaxSteps budget — the work must be charged by the requested
// range so adversarial lengths exhaust the budget instead of hanging.
// The charge depends only on the program's own length operands, so
// native and instrumented runs stay step-identical.
func (m *Machine) chargeCells(fr *frame, in ir.Instr, n int) {
	m.res.Steps += int64(n)
	if m.res.Steps > m.opts.MaxSteps {
		m.fail(fr.fn, in.Pos(), "step budget exhausted (%d)", m.opts.MaxSteps)
	}
}

func (m *Machine) execMemSet(fr *frame, in *ir.MemSet) {
	n := m.rangeLen(fr, in, in.Len, "memset")
	to := m.checkAddr(fr, in, in.To, "memset")
	m.checkRange(fr, in, to, n, "memset")
	m.chargeCells(fr, in, n)
	// The filled value's definedness is copied into every cell, not
	// checked: memset with an undefined value only becomes an error at a
	// later critical use of the range.
	v, d := m.eval(fr, in.Val)
	cells := to.Inst.Cells[to.Int : to.Int+int64(n)]
	for i := range cells {
		cells[i] = Cell{Val: v, Defined: d}
	}
}

func (m *Machine) execMemCopy(fr *frame, in *ir.MemCopy) {
	n := m.rangeLen(fr, in, in.Len, "memcopy")
	from := m.checkAddr(fr, in, in.From, "memcopy source")
	to := m.checkAddr(fr, in, in.To, "memcopy")
	m.checkRange(fr, in, from, n, "memcopy source")
	m.checkRange(fr, in, to, n, "memcopy")
	m.chargeCells(fr, in, n)
	// Values and definedness bits move together, MSan-style; copy has
	// memmove semantics, so overlapping ranges within one instance come
	// out as a buffered copy would leave them.
	copy(to.Inst.Cells[to.Int:to.Int+int64(n)], from.Inst.Cells[from.Int:from.Int+int64(n)])
}

func (m *Machine) execAlloc(fr *frame, in *ir.Alloc) {
	size := in.Obj.Size
	if in.DynSize != nil {
		v, d := m.eval(fr, in.DynSize)
		if v.Kind != KindInt || !d || v.Int <= 0 {
			m.diag("%s: allocation with invalid size %s", in.Pos(), v)
			size = 1
		} else {
			size = int(v.Int)
		}
	}
	inst := m.newInstance(in.Obj, size)
	if in.Obj.Kind == ir.ObjStack {
		fr.stacks = append(fr.stacks, inst)
	}
	fr.set(in.Dst, addrVal(inst, 0), true)
}

func (m *Machine) execBinOp(fr *frame, in *ir.BinOp) {
	x, xd := m.eval(fr, in.X)
	y, yd := m.eval(fr, in.Y)
	d := xd && yd
	switch in.Op {
	case ir.OpEq:
		fr.set(in.Dst, boolVal(equal(x, y)), d)
		return
	case ir.OpNe:
		fr.set(in.Dst, boolVal(!equal(x, y)), d)
		return
	}
	if x.Kind != KindInt || y.Kind != KindInt {
		// Arithmetic on pointers outside IndexAddr: treat operands as
		// opaque integers (their identities), keeping execution total.
		x, y = coerceInt(x), coerceInt(y)
	}
	var r int64
	switch in.Op {
	case ir.OpAdd:
		r = x.Int + y.Int
	case ir.OpSub:
		r = x.Int - y.Int
	case ir.OpMul:
		r = x.Int * y.Int
	case ir.OpDiv:
		if y.Int == 0 {
			m.diag("%s: division by zero", in.Pos())
		} else {
			r = x.Int / y.Int
		}
	case ir.OpRem:
		if y.Int == 0 {
			m.diag("%s: remainder by zero", in.Pos())
		} else {
			r = x.Int % y.Int
		}
	case ir.OpShl:
		r = x.Int << uint(y.Int&63)
	case ir.OpShr:
		r = x.Int >> uint(y.Int&63)
	case ir.OpAnd:
		r = x.Int & y.Int
	case ir.OpOr:
		r = x.Int | y.Int
	case ir.OpXor:
		r = x.Int ^ y.Int
	case ir.OpLt:
		r = b2i(x.Int < y.Int)
	case ir.OpLe:
		r = b2i(x.Int <= y.Int)
	case ir.OpGt:
		r = b2i(x.Int > y.Int)
	case ir.OpGe:
		r = b2i(x.Int >= y.Int)
	default:
		m.fail(fr.fn, in.Pos(), "unknown operator %s", in.Op)
	}
	fr.set(in.Dst, IntVal(r), d)
}

func coerceInt(v Value) Value {
	switch v.Kind {
	case KindInt:
		return v
	case KindAddr:
		if v.isNull() {
			return IntVal(0)
		}
		return IntVal(int64(v.Inst.Seq)<<16 + v.Int + 1)
	default:
		return IntVal(1)
	}
}

func boolVal(b bool) Value { return IntVal(b2i(b)) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) execCall(fr *frame, in *ir.Call) {
	switch in.Builtin {
	case ir.BuiltinFree:
		v, d := m.eval(fr, in.Args[0])
		if !d {
			m.oracleWarn(fr.fn, in, "free of undefined pointer")
		}
		if v.Kind == KindAddr && !v.isNull() {
			if v.Inst.Freed {
				m.diag("%s: double free of %s", in.Pos(), v)
			}
			v.Inst.Freed = true
		}
		return
	case ir.BuiltinPrint:
		v, d := m.eval(fr, in.Args[0])
		if !d {
			m.oracleWarn(fr.fn, in, "print of undefined value")
		}
		m.res.Out = append(m.res.Out, coerceInt(v).Int)
		return
	case ir.BuiltinInput:
		fr.set(in.Dst, IntVal(m.opts.Input(m.ninput)), true)
		m.ninput++
		return
	}

	var callee *ir.Function
	if direct := in.Direct(); direct != nil {
		callee = direct
	} else {
		v, d := m.eval(fr, in.Callee)
		if !d {
			m.oracleWarn(fr.fn, in, "indirect call through undefined pointer")
		}
		if v.Kind != KindFunc || v.Inst == nil {
			m.fail(fr.fn, in.Pos(), "indirect call through non-function %s", v)
		}
		callee = v.Inst.fn
	}
	if !callee.HasBody {
		// External function: returns a defined zero, like a modelled
		// library call.
		if in.Dst != nil {
			fr.set(in.Dst, IntVal(0), true)
			if m.shadowM != nil {
				m.shadowM.externalCallResult(fr, in)
			}
		}
		return
	}
	if len(in.Args) != len(callee.Params) {
		m.fail(fr.fn, in.Pos(), "call to %s with %d args, want %d", callee.Name, len(in.Args), len(callee.Params))
	}
	// Arguments are evaluated straight into the callee's parameter
	// registers.
	cf := m.frameFor(callee)
	for i, a := range in.Args {
		v, d := m.eval(fr, a)
		cf.set(callee.Params[i], v, d)
	}
	if m.shadowM != nil {
		m.shadowM.passArgs(fr, in, cf)
	}
	v, d := m.exec(cf)
	if in.Dst != nil {
		fr.set(in.Dst, v, d)
	}
	if m.shadowM != nil {
		m.shadowM.afterCallReturn(fr, in)
	}
}
