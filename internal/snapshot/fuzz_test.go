package snapshot

import (
	"bytes"
	"testing"

	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
)

// FuzzSnapshotRead throws arbitrary bytes — seeded with a genuine
// snapshot so the fuzzer starts past the header checks — at the full
// load path: Read must return an error or a snapshot, never panic, and
// an accepted snapshot must survive pointer.Import (the component that
// sizes dense tables from decoded indices).
func FuzzSnapshotRead(f *testing.F) {
	prog, err := pipeline.Compile("fuzz.c", corruptSrc, nil)
	if err != nil {
		f.Fatal(err)
	}
	st := pipeline.NewStore(prog, nil)
	pa, err := st.Pointer()
	if err != nil {
		f.Fatal(err)
	}
	ex, err := pa.Export(prog)
	if err != nil {
		f.Fatal(err)
	}
	pr, err := st.Plan(pipeline.PlanSpec{Name: "Usher", OptI: true, OptII: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	err = Write(&buf, prog, &Snapshot{
		Pointer: ex,
		Plans:   []PlanEntry{{Name: "Usher", Plan: pr.Plan}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each iteration needs a fresh program: decode resolves against
		// live IR, and pointer.Import mutates it (object collapsing).
		prog, err := pipeline.Compile("fuzz.c", corruptSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Read(bytes.NewReader(data), prog)
		if err != nil {
			return
		}
		if snap.Pointer == nil {
			t.Fatal("accepted snapshot without PTRS section")
		}
		if _, err := pointer.Import(prog, snap.Pointer); err != nil {
			// A decoded-but-unimportable snapshot is acceptable (Import
			// applies stricter cross-entity checks); it must only fail
			// with an error, which reaching here demonstrates.
			return
		}
	})
}
