// Package diag defines the structured diagnostics shared by every stage
// of the MiniC frontend and the analysis pipeline.
//
// A Diagnostic carries the pipeline phase that produced it, a source
// position and a message. Stages accumulate diagnostics in a List
// instead of panicking or stopping at the first problem; the List
// renders them as a single error with the diagnostics in source order,
// so a program with several independent mistakes reports all of them.
//
// The package also centralizes the two sanctioned escape hatches of the
// otherwise panic-free pipeline: Recovered converts an unexpected panic
// (an internal invariant violation) into a diagnostic at an API
// boundary, and MustNil backs the Must* convenience constructors that
// are documented to panic on caller contract violations.
package diag

import (
	"errors"
	"fmt"
	"sort"

	"github.com/valueflow/usher/internal/token"
)

// Phase identifies the pipeline stage that produced a diagnostic.
type Phase string

// The pipeline phases, in execution order.
const (
	PhaseLex      Phase = "lex"
	PhaseParse    Phase = "parse"
	PhaseModule   Phase = "module"
	PhaseType     Phase = "typecheck"
	PhaseLower    Phase = "lower"
	PhaseVerify   Phase = "verify"
	PhaseLink     Phase = "link"
	PhaseAnalyze  Phase = "analyze"
	PhaseInterp   Phase = "interp"
	PhaseInternal Phase = "internal"
)

// Diagnostic is one positioned error from a pipeline phase. It
// implements error, rendering as "file:line:col: phase: message" (the
// position is omitted when unknown).
type Diagnostic struct {
	Phase Phase
	Pos   token.Pos
	Msg   string
}

func (d *Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: %s", d.Pos, d.Phase, d.Msg)
	}
	return fmt.Sprintf("%s: %s", d.Phase, d.Msg)
}

// Recovered converts a value recovered from a panic into an
// internal-error diagnostic for the given phase. It is the wrapper used
// at the public API boundaries: an unexpected panic anywhere below
// becomes an ordinary error instead of crashing the process.
func Recovered(phase Phase, r any) *Diagnostic {
	return &Diagnostic{Phase: phase, Msg: fmt.Sprintf("internal error: %v", r)}
}

// Guard is the deferred form of Recovered:
//
//	func Source(file, src string) (_ *ir.Program, err error) {
//		defer diag.Guard(diag.PhaseInternal, &err)
//		...
//	}
//
// It recovers any in-flight panic and stores it in *errp as a
// single-diagnostic Error, leaving *errp untouched when no panic
// occurred.
func Guard(phase Phase, errp *error) {
	if r := recover(); r != nil {
		*errp = &Error{Diags: []*Diagnostic{Recovered(phase, r)}}
	}
}

// MustNil panics when err is non-nil. It backs the Must* convenience
// constructors (MustCompile, MustAnalyze): calling those on input that
// does not compile is a caller contract violation, which is the one kind
// of panic the error contract permits.
func MustNil(what string, err error) {
	if err != nil {
		panic(fmt.Sprintf("%s: %v", what, err))
	}
}

// List accumulates diagnostics. The zero value is ready to use.
type List struct {
	diags []*Diagnostic
}

// Add appends one diagnostic.
func (l *List) Add(d *Diagnostic) { l.diags = append(l.diags, d) }

// Addf appends a formatted diagnostic.
func (l *List) Addf(phase Phase, pos token.Pos, format string, args ...any) {
	l.Add(&Diagnostic{Phase: phase, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Len returns the number of accumulated diagnostics.
func (l *List) Len() int { return len(l.diags) }

// Merge absorbs the diagnostics carried by err (see All). A non-nil err
// carrying no diagnostics is recorded as a single position-less
// diagnostic under the given phase.
func (l *List) Merge(phase Phase, err error) {
	if err == nil {
		return
	}
	if ds := All(err); len(ds) > 0 {
		l.diags = append(l.diags, ds...)
		return
	}
	l.Addf(phase, token.Pos{}, "%v", err)
}

// Err returns nil when the list is empty, and otherwise an *Error
// holding the diagnostics sorted into source order.
func (l *List) Err() error {
	if len(l.diags) == 0 {
		return nil
	}
	ds := append([]*Diagnostic(nil), l.diags...)
	sortDiags(ds)
	return &Error{Diags: ds}
}

// Error is an error holding one or more diagnostics in source order.
type Error struct {
	Diags []*Diagnostic
}

func (e *Error) Error() string {
	switch len(e.Diags) {
	case 0:
		return "no diagnostics"
	case 1:
		return e.Diags[0].Error()
	}
	s := e.Diags[0].Error()
	for _, d := range e.Diags[1:] {
		s += "\n" + d.Error()
	}
	return s
}

// Unwrap exposes the individual diagnostics to errors.Is / errors.As.
func (e *Error) Unwrap() []error {
	errs := make([]error, len(e.Diags))
	for i, d := range e.Diags {
		errs[i] = d
	}
	return errs
}

// All extracts the diagnostics carried by err: the slice of a *Error,
// the single *Diagnostic itself, or nil for any other error (including
// wrapped forms, which are searched via errors.As).
func All(err error) []*Diagnostic {
	var e *Error
	if errors.As(err, &e) {
		return e.Diags
	}
	var d *Diagnostic
	if errors.As(err, &d) {
		return []*Diagnostic{d}
	}
	return nil
}

// sortDiags orders diagnostics by source position (file, line, column),
// stably, with position-less diagnostics last.
func sortDiags(ds []*Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.IsValid() != b.IsValid() {
			return a.IsValid()
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}
