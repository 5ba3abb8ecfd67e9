// Package snapshot persists solved analysis artifacts — points-to sets,
// the call graph, object collapses, and per-configuration
// instrumentation plans — in a binary file keyed by a content hash of
// the program's IR, so a later run over the same program can warm-start:
// load the snapshot, verify the fingerprint, and skip the pointer solve
// and value-flow construction entirely.
//
// # File format (version 2)
//
//	offset  size  field
//	0       8     magic "USHSNAP1"
//	8       4     format version, uint32 little-endian
//	12      32    fingerprint: sha256 of ir.Print(prog)
//	44      ...   sections until EOF
//
// Each section is framed as
//
//	tag      4 bytes (ASCII)
//	length   uint32 little-endian, payload bytes
//	payload  length bytes
//	crc      uint32 little-endian, IEEE CRC-32 of payload
//
// Two section tags exist: "PTRS" (exactly one; the pointer-analysis
// export — solver stats, collapsed objects, interned location table,
// per-register points-to sets, call-graph edges) and "PLAN" (zero or
// more; one instrumentation plan per configuration, with its Opt I/II/
// III statistics). Payload integers are unsigned varints (zigzag for
// the one signed field, constant values); object references are IDs,
// functions are indices into prog.Funcs, and registers are ids within
// their function — the same dense-index discipline as pointer.Export.
// Unknown tags are an error, and the version field gates format
// evolution: adding a section or removing one is an incompatible change
// that bumps the version (version 1 files could carry "VSUM" sections,
// resolved Γ bit vectors, which version 2 dropped). A reader treats a
// file of any other version exactly like corruption, falling back to the
// safe cold solve.
//
// # Failure discipline
//
// Read distinguishes the one expected mismatch from damage:
// ErrStale means the file is a well-formed snapshot of a DIFFERENT
// program (fingerprint mismatch) — the normal miss after source
// changes. Everything else (short file, bad magic, wrong version, CRC
// mismatch, out-of-range index) is a corruption error. Both are plain
// errors, never panics, so callers fall back to a cold solve.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
)

const (
	magic   = "USHSNAP1"
	version = 2

	tagPointer = "PTRS"
	tagPlan    = "PLAN"
)

// ErrStale reports a structurally valid snapshot whose fingerprint does
// not match the program being loaded for.
var ErrStale = errors.New("snapshot: fingerprint mismatch (snapshot is for a different program)")

// Snapshot is the in-memory form of one snapshot file: the solved
// pointer state plus any instrumentation plans that were computed.
type Snapshot struct {
	Pointer *pointer.Export
	Plans   []PlanEntry
}

// PlanEntry is one configuration's instrumentation plan with the
// optimization statistics its PlanResult carries.
type PlanEntry struct {
	Name           string
	Plan           *instrument.Plan
	MFCsSimplified int
	Redirected     int
	ChecksElided   int
	Demanded       int
}

// PlanByName returns the stored plan entry for a configuration.
func (s *Snapshot) PlanByName(name string) (PlanEntry, bool) {
	for _, pe := range s.Plans {
		if pe.Name == name {
			return pe, true
		}
	}
	return PlanEntry{}, false
}

// Fingerprint is the content hash snapshots are keyed by: the sha256 of
// the program's canonical text rendering. ir.Print is insensitive to
// the solver's only IR mutation (object collapsing), so a snapshot
// saved after solving still matches a fresh compile of the same source.
func Fingerprint(prog *ir.Program) [sha256.Size]byte {
	return sha256.Sum256([]byte(ir.Print(prog)))
}

// Path returns the file a snapshot of prog lives at under dir: the
// first 16 hex digits of the fingerprint, extension ".usnap". A
// different program hashes to a different path, so a lookup for a
// never-snapshotted program is a clean file-not-found miss.
func Path(dir string, prog *ir.Program) string {
	fp := Fingerprint(prog)
	return filepath.Join(dir, hex.EncodeToString(fp[:8])+".usnap")
}

// Save writes prog's snapshot under dir (created if needed) and returns
// the path. The write goes through a temp file and rename so a crashed
// save never leaves a truncated snapshot at the keyed path.
func Save(dir string, prog *ir.Program, snap *Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := Write(&buf, prog, snap); err != nil {
		return "", err
	}
	path := Path(dir, prog)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// Load reads the snapshot keyed to prog under dir. A missing file
// surfaces as an fs.ErrNotExist error (the normal cold-start miss);
// see Read for the stale/corrupt discipline.
func Load(dir string, prog *ir.Program) (*Snapshot, error) {
	data, err := os.ReadFile(Path(dir, prog))
	if err != nil {
		return nil, err
	}
	return Read(bytes.NewReader(data), prog)
}

// Write serializes snap, fingerprinted against prog.
func Write(w io.Writer, prog *ir.Program, snap *Snapshot) error {
	if snap.Pointer == nil {
		return errors.New("snapshot: nothing to write (no pointer export)")
	}
	ctx, err := newEncodeContext(prog)
	if err != nil {
		return err
	}
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	var v4 [4]byte
	binary.LittleEndian.PutUint32(v4[:], version)
	hdr.Write(v4[:])
	fp := Fingerprint(prog)
	hdr.Write(fp[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	payload, err := encodePointer(ctx, snap.Pointer)
	if err != nil {
		return err
	}
	if err := writeSection(w, tagPointer, payload); err != nil {
		return err
	}
	for _, pe := range snap.Plans {
		payload, err := encodePlan(ctx, pe)
		if err != nil {
			return err
		}
		if err := writeSection(w, tagPlan, payload); err != nil {
			return err
		}
	}
	return nil
}

// Read parses a snapshot and resolves it against prog. The fingerprint
// is verified before any section is decoded; a mismatch is ErrStale.
func Read(r io.Reader, prog *ir.Program) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(data) < len(magic)+4+sha256.Size {
		return nil, errors.New("snapshot: file too short for header")
	}
	if string(data[:len(magic)]) != magic {
		return nil, errors.New("snapshot: bad magic")
	}
	data = data[len(magic):]
	if v := binary.LittleEndian.Uint32(data[:4]); v != version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (want %d)", v, version)
	}
	data = data[4:]
	want := Fingerprint(prog)
	if !bytes.Equal(data[:sha256.Size], want[:]) {
		return nil, ErrStale
	}
	data = data[sha256.Size:]

	ctx, err := newDecodeContext(prog)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{}
	for len(data) > 0 {
		tag, payload, rest, err := readSection(data)
		if err != nil {
			return nil, err
		}
		data = rest
		switch tag {
		case tagPointer:
			if snap.Pointer != nil {
				return nil, errors.New("snapshot: duplicate PTRS section")
			}
			snap.Pointer, err = decodePointer(ctx, payload)
		case tagPlan:
			var pe PlanEntry
			pe, err = decodePlan(ctx, payload)
			if err == nil {
				snap.Plans = append(snap.Plans, pe)
			}
		default:
			err = fmt.Errorf("snapshot: unknown section tag %q", tag)
		}
		if err != nil {
			return nil, err
		}
	}
	if snap.Pointer == nil {
		return nil, errors.New("snapshot: missing PTRS section")
	}
	return snap, nil
}

// writeSection frames one payload: tag, length, bytes, CRC.
func writeSection(w io.Writer, tag string, payload []byte) error {
	var frame [8]byte
	copy(frame[:4], tag)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// readSection unframes the next section, verifying its CRC.
func readSection(data []byte) (tag string, payload, rest []byte, err error) {
	if len(data) < 8 {
		return "", nil, nil, errors.New("snapshot: truncated section header")
	}
	tag = string(data[:4])
	n := binary.LittleEndian.Uint32(data[4:8])
	data = data[8:]
	// Compare in uint64: a hostile length near MaxUint32 would overflow
	// n+4 in uint32 arithmetic, pass the truncation check, and panic
	// slicing below instead of returning the corruption error.
	if uint64(len(data)) < uint64(n)+4 {
		return "", nil, nil, fmt.Errorf("snapshot: section %q truncated", tag)
	}
	payload = data[:n]
	want := binary.LittleEndian.Uint32(data[n : n+4])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, nil, fmt.Errorf("snapshot: section %q checksum mismatch", tag)
	}
	return tag, payload, data[n+4:], nil
}
