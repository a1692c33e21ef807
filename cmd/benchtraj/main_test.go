package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary doubles as the CLI: when re-exec'd with the marker
// environment variable it runs main() on its own arguments, so the tests
// below exercise real exit codes without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTRAJ_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as benchtraj with stdin as its input and
// returns its stderr and exit status.
func runCLI(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHTRAJ_BE_CLI=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("benchtraj %v: %v", args, err)
	}
	return stderr.String(), ee.ExitCode()
}

// writeReference writes a reference snapshot holding one benchmark,
// BenchmarkKnown at 1000 ns/op, and returns its path and bytes.
func writeReference(t *testing.T) (string, []byte) {
	t.Helper()
	ref := []byte(`{
  "label": "fixture",
  "benchmarks": [
    {"name": "BenchmarkKnown", "iterations": 100, "ns_per_op": 1000}
  ]
}
`)
	path := filepath.Join(t.TempDir(), "BENCH_after.json")
	if err := os.WriteFile(path, ref, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ref
}

// TestUnknownBenchmarkLeavesReference: a benchmark with no baseline is
// reported and skipped, and the reference file is left byte-identical.
func TestUnknownBenchmarkLeavesReference(t *testing.T) {
	path, ref := writeReference(t)
	in := "BenchmarkKnown-2   \t     100\t      1010 ns/op\n" +
		"BenchmarkUnknown-2 \t      50\t      5000 ns/op\t  64 B/op\t   2 allocs/op\n"
	stderr, code := runCLI(t, in, "-against", path, "-threshold", "25")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "BenchmarkUnknown has no baseline") {
		t.Fatalf("unknown benchmark not reported; stderr:\n%s", stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("reference file changed:\n%s", got)
	}
}

// TestRegressionFails: an ns/op regression beyond -threshold exits
// non-zero and names the benchmark.
func TestRegressionFails(t *testing.T) {
	path, _ := writeReference(t)
	in := "BenchmarkKnown-2 \t     100\t      1300 ns/op\n"
	stderr, code := runCLI(t, in, "-against", path, "-threshold", "25")
	if code == 0 {
		t.Fatalf("a +30%% regression passed a 25%% threshold; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "BenchmarkKnown: 1300 ns/op vs 1000") {
		t.Fatalf("regression not described; stderr:\n%s", stderr)
	}
}
