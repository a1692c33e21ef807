package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"debugdet/internal/record"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the run is correct and prints exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(d.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, layerNames %d", len(d.PerLayer), len(layerNames))
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := execute(options{workload: name, seed: 1, seconds: 0.01, trace: trace,
				workDir: t.TempDir(), sz: tinySizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func testCtx(t *testing.T, workload string) ctx {
	return ctx{counters: &counters{}, workload: workload, workers: 1, workDir: t.TempDir()}
}

// TestWrongPinFails proves the corpus checks bite: a fidelity pin the
// program does not meet turns into failed operations.
func TestWrongPinFails(t *testing.T) {
	w := newCorpus(tinySizes, 1)
	w.pins["sum"][record.Output] = 1 // the real fidelity is 0
	c := testCtx(t, "corpus-eval")
	c.pass = -1
	if err := w.setup(c); err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 {
		t.Fatalf("set-up checks only seed-independent rows, yet %d failed", c.failed)
	}
	c.pass = 0
	if _, err := w.pass(c); err != nil {
		t.Fatal(err)
	}
	if c.failed != 1 {
		t.Fatalf("failed = %d of %d, want exactly the mis-pinned cell", c.failed, c.attempted)
	}
}

// TestCorruptRecordingFails proves the session checks bite: a damaged
// .ddrc file turns into a failed operation, not a crash or a silent pass.
func TestCorruptRecordingFails(t *testing.T) {
	w := newSession(tinySizes, 1)
	c := testCtx(t, "debug-session")
	c.pass = -1
	if err := w.setup(c); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(w.file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w.file, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c.pass = 0
	if _, err := w.pass(c); err != nil {
		t.Fatal(err)
	}
	if c.failed == 0 || errorRate(c.counters) == 0 {
		t.Fatalf("truncated recording passed: attempted=%d failed=%d", c.attempted, c.failed)
	}
}
