package bench

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCommonFlagsValidate pins the shared validation rule all driver
// binaries apply after flag parsing: the pools treat out-of-range values
// leniently (pool.ForEach serializes on parallel <= 1), so the CLI must
// reject them loudly instead of silently degrading a run.
func TestCommonFlagsValidate(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{nil, ""},
		{[]string{"-parallel", "1"}, ""},
		{[]string{"-parallel", "8", "-gamma-summaries"}, ""},
		{[]string{"-parallel", "0"}, "-parallel"},
		{[]string{"-parallel", "-3"}, "-parallel"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cf := RegisterCommonFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := cf.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: unexpected error %v", tc.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted, want an error naming %s", tc.args, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %q does not name the flag %s", tc.args, err, tc.wantErr)
		}
	}
}

// TestSolverFlagMatchesCommon keeps the standalone -gamma-summaries
// registration (usherc, vfg-dump) in lockstep with the CommonFlags one:
// same default, same help text, same effect once parsed.
func TestSolverFlagMatchesCommon(t *testing.T) {
	cfs := flag.NewFlagSet("common", flag.ContinueOnError)
	cf := RegisterCommonFlags(cfs)
	sfs := flag.NewFlagSet("solver", flag.ContinueOnError)
	sf := RegisterSolverFlag(sfs)
	cfl, sfl := cfs.Lookup("gamma-summaries"), sfs.Lookup("gamma-summaries")
	if cfl == nil || sfl == nil {
		t.Fatalf("-gamma-summaries missing: common %v, solver %v", cfl, sfl)
	}
	if cfl.DefValue != sfl.DefValue || cfl.Usage != sfl.Usage {
		t.Errorf("registrations differ: common (%q, %q), solver (%q, %q)",
			cfl.DefValue, cfl.Usage, sfl.DefValue, sfl.Usage)
	}
	if err := cfs.Parse([]string{"-gamma-summaries"}); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Parse([]string{"-gamma-summaries"}); err != nil {
		t.Fatal(err)
	}
	if !cf.GammaSummaries || !sf.GammaSummaries {
		t.Errorf("parsed -gamma-summaries: common %v, solver %v, want both true", cf.GammaSummaries, sf.GammaSummaries)
	}
}
