// Command benchtraj maintains the repository's per-PR benchmark
// trajectory. It reads `go test -bench` output on stdin, parses the
// result lines, appends the run to a trajectory file (one JSON array
// entry per CI run), and compares the measured ns/op against a reference
// snapshot, failing when any tracked benchmark regressed beyond the
// threshold:
//
//	go test -run '^$' -bench 'VMStepThroughput|CheckpointSeek|FlightRecorder' -benchmem |
//	    benchtraj -label "$GITHUB_SHA" -trajectory BENCH_trajectory.json \
//	              -against BENCH_after.json -threshold 25
//
// Stdin is echoed through to stdout, so the raw benchmark output stays in
// the CI log. The reference snapshot is only read, never written.
// Benchmarks absent from it have no baseline: they are reported on stderr
// and skipped. Reference entries absent from stdin are ignored (the smoke
// run benches a subset). Either file flag may be empty to skip that half
// of the job.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"time"
)

// mark is one parsed benchmark result, in the same shape the BENCH_*.json
// snapshots use.
type mark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// run is one trajectory entry: a labeled, timestamped set of marks.
type run struct {
	Label      string `json:"label"`
	Recorded   string `json:"recorded"`
	Benchmarks []mark `json:"benchmarks"`
}

// reference mirrors the BENCH_after.json / BENCH_baseline.json layout;
// only the benchmark list matters here.
type reference struct {
	Benchmarks []mark `json:"benchmarks"`
}

// benchLine matches a go-test benchmark result: name, iteration count,
// ns/op, and optionally -benchmem's B/op and allocs/op columns.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+(\d+) allocs/op)?`)

func main() {
	label := flag.String("label", "", "label recorded with the trajectory entry")
	trajectory := flag.String("trajectory", "", "trajectory file to append this run to (empty = skip)")
	against := flag.String("against", "", "reference snapshot to compare ns/op against (empty = skip)")
	threshold := flag.Float64("threshold", 25, "allowed ns/op regression in percent")
	flag.Parse()

	marks, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(marks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}
	if *trajectory != "" {
		if err := appendRun(*trajectory, *label, marks); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchtraj: appended %d benchmarks to %s\n", len(marks), *trajectory)
	}
	if *against != "" {
		regressions, err := compare(*against, marks, *threshold)
		if err != nil {
			fatal(err)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchtraj: %d regression(s) beyond %.0f%% vs %s:\n",
				len(regressions), *threshold, *against)
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchtraj: no ns/op regression beyond %.0f%% vs %s\n",
			*threshold, *against)
	}
}

// parse scans benchmark output, echoing every line to stdout and
// collecting the result lines.
func parse(f *os.File) ([]mark, error) {
	var marks []mark
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op on %q: %w", line, err)
		}
		mk := mark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			mk.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
			mk.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		marks = append(marks, mk)
	}
	return marks, sc.Err()
}

// appendRun adds one labeled entry to the trajectory file, creating it on
// first use. The file is a JSON array so the whole history stays one
// parseable document.
func appendRun(path, label string, marks []mark) error {
	var history []run
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &history); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	history = append(history, run{
		Label:      label,
		Recorded:   time.Now().UTC().Format(time.RFC3339),
		Benchmarks: marks,
	})
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare checks each measured benchmark against the reference snapshot,
// describing every ns/op regression beyond the threshold percent.
// Benchmarks with no baseline (absent from the reference, or a zero/
// negative ns/op that would make the percentage meaningless) are reported
// and skipped — a new benchmark must never read as a regression.
func compare(path string, marks []mark, threshold float64) (regressions []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := make(map[string]float64, len(ref.Benchmarks))
	for _, b := range ref.Benchmarks {
		base[b.Name] = b.NsPerOp
	}
	for _, m := range marks {
		old, ok := base[m.Name]
		if !ok || old <= 0 {
			fmt.Fprintf(os.Stderr, "benchtraj: %s has no baseline in %s; skipped\n", m.Name, path)
			continue
		}
		pct := (m.NsPerOp - old) / old * 100
		if pct > threshold {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs %.0f (%+.1f%%)", m.Name, m.NsPerOp, old, pct))
		}
	}
	return regressions, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtraj:", err)
	os.Exit(1)
}
