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
