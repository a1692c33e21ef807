package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The test binary doubles as the CLI: when re-exec'd with the marker
// environment variable it runs main() on its own arguments, so the tests
// below exercise real exit codes without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("REPLAYDBG_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as replaydbg and returns its combined
// output and exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPLAYDBG_BE_CLI=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("replaydbg %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// TestRecordSpillCreatesDir: -spill pointing at a missing nested directory
// creates it, and info reads the result back.
func TestRecordSpillCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "spill")
	out, code := runCLI(t, "record", "-scenario", "bank", "-spill", dir)
	if code != 0 {
		t.Fatalf("record -spill exited %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.ddmf")); err != nil {
		t.Fatalf("no manifest in created spill dir: %v", err)
	}
	out, code = runCLI(t, "info", "-in", dir)
	if code != 0 || !strings.Contains(out, "flight recording: bank") {
		t.Fatalf("info on fresh spill dir exited %d:\n%s", code, out)
	}
}

// TestInfoBadSpillDirIsUsageError: a directory that is not a readable
// spill directory — empty, or holding a truncated manifest — exits with
// status 2 and a diagnostic, like a nonexistent path; never a panic.
func TestInfoBadSpillDirIsUsageError(t *testing.T) {
	empty := t.TempDir()
	out, code := runCLI(t, "info", "-in", empty)
	if code != 2 || !strings.Contains(out, "not a flight-recorder spill directory") {
		t.Fatalf("info on empty dir exited %d:\n%s", code, out)
	}

	partial := t.TempDir()
	if err := os.WriteFile(filepath.Join(partial, "manifest.ddmf"), []byte("DDMF"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLI(t, "info", "-in", partial)
	if code != 2 || !strings.Contains(out, "not a flight-recorder spill directory") {
		t.Fatalf("info on truncated manifest exited %d:\n%s", code, out)
	}

	out, code = runCLI(t, "info", "-in", filepath.Join(empty, "nope"))
	if code != 2 {
		t.Fatalf("info on nonexistent path exited %d:\n%s", code, out)
	}
}

// TestRecordRejectsNegativeKnobs: negative -ring/-retain are rejected
// before the spill directory is created.
func TestRecordRejectsNegativeKnobs(t *testing.T) {
	for _, tc := range []struct{ flag, field string }{
		{"-ring", "RingSegments"},
		{"-retain", "Retention"},
	} {
		dir := filepath.Join(t.TempDir(), "spill")
		out, code := runCLI(t, "record", "-scenario", "bank", "-spill", dir, tc.flag, "-1")
		if code == 0 || !strings.Contains(out, tc.field) {
			t.Fatalf("record %s -1 exited %d:\n%s", tc.flag, code, out)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("rejected record still created %s", dir)
		}
	}
}

// TestSeekDebugBothSources: seek and debug take -in as either source kind
// — a .ddrc recording or a flight recorder's spill directory — and report
// the same positions for the same checkpointed run.
func TestSeekDebugBothSources(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "bank.ddrc")
	spill := filepath.Join(dir, "bank.spill")
	for _, args := range [][]string{
		{"record", "-scenario", "bank", "-ckpt", "64", "-out", file},
		{"record", "-scenario", "bank", "-ckpt", "64", "-spill", spill},
	} {
		if out, code := runCLI(t, args...); code != 0 {
			t.Fatalf("replaydbg %v exited %d:\n%s", args, code, out)
		}
	}
	var wheres [][]string
	for _, in := range []string{file, spill} {
		out, code := runCLI(t, "seek", "-in", in, "-to", "200")
		if code != 0 || !strings.Contains(out, "position 200/") {
			t.Fatalf("seek -in %s exited %d:\n%s", in, code, out)
		}
		out, code = runCLI(t, "debug", "-in", in, "-script", "seek 200;where;back 5;where;run;quit")
		if code != 0 {
			t.Fatalf("debug -in %s exited %d:\n%s", in, code, out)
		}
		// Each command's report follows the "(ddbg @N) " prompt; the
		// position reports start with "at ".
		var at []string
		for _, line := range strings.Split(out, "\n") {
			if _, rest, ok := strings.Cut(line, ") "); ok && strings.HasPrefix(rest, "at ") {
				at = append(at, rest)
			}
		}
		if len(at) != 5 {
			t.Fatalf("debug -in %s: %d position reports, want 5:\n%s", in, len(at), out)
		}
		wheres = append(wheres, at)
	}
	if !reflect.DeepEqual(wheres[0], wheres[1]) {
		t.Fatalf("position reports differ:\n.ddrc:  %q\nspill: %q", wheres[0], wheres[1])
	}
}
