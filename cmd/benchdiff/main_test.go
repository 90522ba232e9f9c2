package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		stdout     string // substring expected on standard output
		stderr     string // substring expected on standard error
		emptyStdio bool   // nothing may be compared or printed
	}{
		{"same context, faster", []string{"testdata/two_cores.json", "testdata/two_cores.json"}, exitOK, "no regressions", "", false},
		{"core counts differ", []string{"testdata/two_cores.json", "testdata/eight_cores.json"}, exitContext, "", "num_cpu 2 vs 8", true},
		{"GOMAXPROCS differs", []string{"testdata/two_cores.json", "testdata/gomaxprocs_one.json"}, exitContext, "", "gomaxprocs 2 vs 1", true},
		{"baseline without context", []string{"testdata/no_context.json", "testdata/eight_cores.json"}, exitOK, "no regressions", "", false},
		{"new run without context", []string{"testdata/eight_cores.json", "testdata/no_context.json"}, exitRegression, "REGRESSION", "", false},
		{"missing file", []string{"testdata/two_cores.json", "testdata/absent.json"}, exitUsage, "", "absent.json", true},
		{"one file", []string{"testdata/two_cores.json"}, exitUsage, "", "usage", true},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stdout %q, stderr %q; want %q and %q", tc.name, stdout.String(), stderr.String(), tc.stdout, tc.stderr)
		}
		if tc.emptyStdio && stdout.Len() != 0 {
			t.Errorf("%s: printed a comparison it refused: %q", tc.name, stdout.String())
		}
	}
}
