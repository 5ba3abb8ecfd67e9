package snapshot

// Hostile-input tests for the decoder. CRC framing catches random
// corruption, but a CRC is a checksum, not a MAC: an adversarial
// snapshot can carry any payload with a perfectly valid checksum, so
// every decoded length and index must be bounded against the live
// program before it sizes an allocation. These tests craft such
// payloads directly with the package's own encoder.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pipeline"
)

const corruptSrc = `
int helper(int x) {
  int y;
  if (x > 2) { y = x; }
  return y + 1;
}
int main() {
  int acc = 0;
  for (int i = 0; i < 5; i++) { acc += helper(i); }
  print(acc);
  return 0;
}
`

func corruptProg(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := pipeline.Compile("corrupt.c", corruptSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// header renders the magic/version/fingerprint preamble for prog.
func header(prog *ir.Program) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var v4 [4]byte
	binary.LittleEndian.PutUint32(v4[:], version)
	buf.Write(v4[:])
	fp := Fingerprint(prog)
	buf.Write(fp[:])
	return buf.Bytes()
}

// section frames payload under tag with a valid CRC.
func section(tag string, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeSection(&buf, tag, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// emptyPointerSection is a well-formed PTRS payload with every count
// zero, for tests whose hostile bytes live in a later section.
func emptyPointerSection() []byte {
	e := &enc{}
	for i := 0; i < 7; i++ { // stats
		e.u(0)
	}
	e.u(0) // collapsed
	e.u(0) // locs
	e.u(0) // regs
	e.u(0) // calls
	return section(tagPointer, e.buf)
}

// mustErr runs Read over data and requires a decode error — never a
// panic, never success — while bounding how much the attempt may
// allocate: a hostile length that survives validation shows up as a
// gigantic make before any error can be returned.
func mustErr(t *testing.T, name string, prog *ir.Program, data []byte, wantSub string) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	snap, err := Read(bytes.NewReader(data), prog)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatalf("%s: hostile snapshot accepted: %+v", name, snap)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
	}
	const allocBudget = 16 << 20
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > allocBudget {
		t.Errorf("%s: decode attempt allocated %d bytes (budget %d)", name, grew, allocBudget)
	}
}

// TestReadHostileSectionLength pins the uint32-overflow fix in
// readSection: a section length near MaxUint32 must be reported as a
// truncated section, not overflow the n+4 bounds check and panic.
func TestReadHostileSectionLength(t *testing.T) {
	prog := corruptProg(t)
	for _, n := range []uint32{0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFFC} {
		var buf bytes.Buffer
		buf.Write(header(prog))
		buf.WriteString(tagPointer)
		var v4 [4]byte
		binary.LittleEndian.PutUint32(v4[:], n)
		buf.Write(v4[:])
		buf.Write(make([]byte, 64))
		mustErr(t, "section length", prog, buf.Bytes(), "truncated")
	}
}

// TestReadHostilePointerRegister feeds a CRC-valid PTRS section whose
// register id is astronomically large. pointer.Import sizes a dense
// per-function table by that id, so the decoder must reject it first.
func TestReadHostilePointerRegister(t *testing.T) {
	prog := corruptProg(t)
	e := &enc{}
	for i := 0; i < 7; i++ {
		e.u(0)
	}
	e.u(0)       // collapsed
	e.u(0)       // locs
	e.u(1)       // one RegPts entry
	e.u(0)       // fn index
	e.u(1 << 40) // hostile register id
	e.u(0)       // its locs
	e.u(0)       // calls
	data := append(header(prog), section(tagPointer, e.buf)...)
	mustErr(t, "pointer register", prog, data, "register id")
}

// TestReadHostileShadowedRegister does the same for a PLAN section's
// shadowed-register list, which MarkShadowedID expands into a dense
// []bool of the id's size.
func TestReadHostileShadowedRegister(t *testing.T) {
	prog := corruptProg(t)
	e := &enc{}
	e.str("Usher")           // entry name
	e.str("Usher")           // plan name
	for i := 0; i < 4; i++ { // opt stats
		e.u(0)
	}
	e.u(1)       // one function plan
	e.u(0)       // fn index
	e.bools(nil) // ParamRecv
	e.bools(nil) // ParamSetT
	e.b(false)   // RetSend
	e.u(1)       // one shadowed register
	e.u(1 << 40) // hostile id
	e.u(0)       // labels
	data := append(header(prog), emptyPointerSection()...)
	data = append(data, section(tagPlan, e.buf)...)
	mustErr(t, "shadowed register", prog, data, "register id")
}

// TestReadHostileFunctionIndex checks that out-of-range function
// indices in both sections resolve to errors.
func TestReadHostileFunctionIndex(t *testing.T) {
	prog := corruptProg(t)
	e := &enc{}
	for i := 0; i < 7; i++ {
		e.u(0)
	}
	e.u(0) // collapsed
	e.u(1) // one loc
	e.byte(locFn)
	e.u(1 << 30) // hostile function index
	e.u(0)       // regs
	e.u(0)       // calls
	data := append(header(prog), section(tagPointer, e.buf)...)
	mustErr(t, "function index", prog, data, "out of range")
}

// TestReadTruncationSweep truncates a genuine snapshot at every length
// from zero to full size minus one: each prefix must either produce an
// error — never a panic — or, when the cut lands exactly on a section
// boundary (the format is "sections until EOF", so that is not
// detectable), parse as a strictly smaller snapshot that still carries
// the mandatory PTRS section. (The full file, by construction, reads
// back.)
func TestReadTruncationSweep(t *testing.T) {
	prog := corruptProg(t)
	st := pipeline.NewStore(prog, nil)
	pa, err := st.Pointer()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pa.Export(prog)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := st.Plan(pipeline.PlanSpec{Name: "Usher", OptI: true, OptII: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Pointer: ex, Plans: []PlanEntry{{Name: "Usher", Plan: pr.Plan}}}
	var buf bytes.Buffer
	if err := Write(&buf, prog, snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full), prog); err != nil {
		t.Fatalf("full snapshot does not read back: %v", err)
	}
	for n := 0; n < len(full); n++ {
		got, err := Read(bytes.NewReader(full[:n]), prog)
		if err != nil {
			continue
		}
		if got.Pointer == nil || len(got.Plans) >= len(snap.Plans) {
			t.Fatalf("truncation to %d/%d bytes accepted as a full snapshot (%d plans)",
				n, len(full), len(got.Plans))
		}
	}
}
