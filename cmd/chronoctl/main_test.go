package main

import (
	"bytes"
	"strings"
	"testing"
)

// A -set without -socket is a usage error that names the daemon path,
// where keys are validated against the live run (see the daemon's
// TestReconfigureUnknownKeySuggests); nothing is simulated locally.
func TestSetWithoutSocketPointsAtReconfigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := localMain(&stdout, &stderr, setFlags{"chrono/cit_threshold_ms=200"}, true, 1)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{"-socket S", "-op reconfigure"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q missing %q", stderr.String(), want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error printed to stdout: %q", stdout.String())
	}
}

// -list prints the full parameter table: kernel/* and, with Chrono
// attached, chrono/* keys.
func TestListPrintsParameterTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := localMain(&stdout, &stderr, nil, true, 1); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"kernel/numa_tiering", "chrono/cit_threshold_ms"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("parameter table missing %s:\n%s", want, stdout.String())
		}
	}
}
