package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() { errCh <- fn() }()
	runErr := <-errCh
	_ = w.Close()
	buf := new(strings.Builder)
	tmp := make([]byte, 4096)
	for {
		n, rerr := r.Read(tmp)
		buf.Write(tmp[:n])
		if rerr != nil {
			break
		}
	}
	return buf.String(), runErr
}

func TestRunTable1(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-ex", "table1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "logistic_regression", "zipper"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunReducedEx1WithCSV(t *testing.T) {
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex1", "-scale", "reduced", "-csvdir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 3") || !strings.Contains(out, "Fig. 4") {
		t.Errorf("missing figure sections:\n%s", out)
	}
	for _, f := range []string{"fig3_sleep_sweep.csv", "fig4_saturation.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("csv %s not written: %v", f, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex99"})
	})
	if err == nil {
		t.Fatal("unknown experiment accepted silently")
	}
	// The error names every valid choice, derived from the registry.
	for _, name := range experimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestRegistryAgreesWithFlagText is the drift guard the -ex help string
// used to lack: the flag text, the registry, and the valid-name set must
// all come from the same list.
func TestRegistryAgreesWithFlagText(t *testing.T) {
	names := experimentNames()
	if len(names) == 0 {
		t.Fatal("empty experiment registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate registry entry %s", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"table1", "ex1", "ex6", "ex7", "ex9"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if seen["all"] {
		t.Error("registry must not claim the reserved name \"all\"")
	}

	// The -ex usage string is derived from the registry and must list
	// every experiment exactly once, in run order.
	usage := exUsage()
	if !strings.Contains(usage, "all | "+strings.Join(names, ",")) {
		t.Errorf("-ex usage %q missing derived list", usage)
	}
}

// TestRunEx7Dispatch runs a mid-registry entry end to end through the CLI:
// the reduced EX-7 must render its table and write its dataset.
func TestRunEx7Dispatch(t *testing.T) {
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex7", "-scale", "reduced", "-csvdir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EX-7", "static-once", "periodic", "drift", "headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ex7_refresh.csv")); err != nil {
		t.Errorf("csv not written: %v", err)
	}
}

// TestRunEx9Dispatch runs the newest registry entry end to end through the
// CLI: the reduced EX-9 must render its scalability table, prove the
// engines agreed, and write its dataset.
func TestRunEx9Dispatch(t *testing.T) {
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex9", "-scale", "reduced", "-csvdir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EX-9", "Shards", "deterministic across engines: yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ex9_scalability.csv")); err != nil {
		t.Errorf("csv not written: %v", err)
	}
}

// TestRunReducedDaysOverride: -days must win over the reduced preset, which
// would otherwise reset EX-4 to its five rounds per zone.
func TestRunReducedDaysOverride(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex4", "-scale", "reduced", "-days", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, zone := range []string{"us-west-1a", "sa-east-1a"} {
		rounds := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, zone+" ") {
				rounds++
			}
		}
		if rounds != 2 {
			t.Errorf("%s rendered %d rounds, want 2:\n%s", zone, rounds, out)
		}
	}
}
