// Command perfbench is debugdet's end-to-end benchmark. It runs one of
// three workloads in a closed loop for a fixed time, checks every
// operation's output, and prints each metric by name with its unit; the
// last line of standard output is a JSON summary.
//
//	perfbench -workload corpus-eval|debug-session|record-soak \
//	    -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it keeps
// spans around every call it makes into a debugdet layer, reports the
// per-layer metrics derived from them, and writes the spans to the work
// directory. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// ctx is what a workload's setup and passes run against: the run's
// counters, the tracer (nil when this pass is untraced) and the labels
// spans are filed under.
type ctx struct {
	*counters
	tr       *tracer
	workload string
	pass     int
	workers  int
	workDir  string
}

// work is what one call processed, as its span records it.
type work struct {
	events uint64
	bytes  int64
	items  int64
}

// call runs f as a span under parent and returns the call's wall time. f
// receives the span's ID for its children and returns the work the call
// did.
func (c ctx) call(parent int, layer, call, tag string, f func(id int) work) time.Duration {
	if c.tr == nil {
		start := time.Now()
		f(0)
		return time.Since(start)
	}
	id := c.tr.newID()
	alloc0 := heapAllocs()
	start := time.Now()
	wk := f(id)
	end := time.Now()
	c.tr.record(span{ID: id, Parent: parent, Workload: c.workload, Pass: c.pass,
		Layer: layer, Call: call, Tag: tag, Events: wk.events, Bytes: wk.bytes,
		Items: wk.items, Alloc: heapAllocs() - alloc0}, start, end)
	return end.Sub(start)
}

// counters counts checked operations across every goroutine of a run.
type counters struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// op counts one operation; a non-nil error marks it failed and is
// reported on standard error.
func (c *counters) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintln(os.Stderr, "check failed:", err)
		}
	}
}

// passStats is what one pass reports for the end-to-end metrics.
type passStats struct {
	traced bool
	wall   time.Duration
	// ops are the latencies of the workload's unit operation.
	ops []time.Duration
	// eventTime over events is the wall time per VM event on the
	// workload's event-processing calls.
	eventTime time.Duration
	events    uint64
	// bytes over byteEvents is the workload's recorded volume per event.
	bytes      int64
	byteEvents uint64
	// named are workload-specific figures, one value per pass.
	named map[string]float64
}

// runner is one benchmark workload.
type runner interface {
	// setup prepares the workload's inputs; the harness repeats it to
	// report its median time, and passes use the last one.
	setup(c ctx) error
	// pass runs one closed-loop pass and checks its outputs.
	pass(c ctx) (passStats, error)
	// layerMetrics derives the workload's per-layer metrics from the
	// spans of its traced passes and the named figures of all passes.
	layerMetrics(tr *tracer, passes []passStats) []metric
}

var workloadNames = []string{"corpus-eval", "debug-session", "record-soak"}

func newWorkload(name string, sz sizes, seed int64) (runner, error) {
	switch name {
	case "corpus-eval":
		return newCorpus(sz, seed), nil
	case "debug-session":
		return newSession(sz, seed), nil
	case "record-soak":
		return newSoak(sz, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	sz       sizes
}

// result is the run's summary line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	list []metric
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for scratch files and spans")
	flag.Parse()
	o.trace, o.sz = trace == 1, fullSizes
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.list {
		fmt.Printf("%-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one benchmark run and returns its summary.
func execute(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	w, err := newWorkload(o.workload, o.sz, o.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "perfbench-")
	if err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cnt := &counters{}
	base := ctx{counters: cnt, workload: o.workload, workers: workers(), workDir: dir}

	// Set-up, repeated; the median is setup_s. Set-up spans are kept in
	// traced runs (the session codec and RCSE preparation live there).
	var setups []float64
	for i := 0; i < o.sz.setupReps; i++ {
		c := base
		c.tr, c.pass = tr, -1-i
		start := time.Now()
		if err := w.setup(c); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The closed loop. A traced run alternates untraced and traced passes
	// so that it can report its own tracing overhead.
	var passes, plain, traced []passStats
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < o.sz.minPasses || time.Now().Before(deadline); i++ {
		c := base
		c.pass = i
		if o.trace && i%2 == 1 {
			c.tr = tr
		}
		ps, err := w.pass(c)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", o.workload, i, err)
		}
		ps.traced = c.tr != nil
		passes = append(passes, ps)
		if ps.traced {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	res := &result{}
	if !o.trace {
		res.list = endToEnd(setups, passes)
	} else {
		// The other two workloads get one traced pass each, so every
		// per-layer metric is measured in every traced run; the layers
		// this workload exercises come from its own loop.
		var others []metric
		for _, name := range workloadNames {
			if name == o.workload {
				continue
			}
			ms, err := onePass(name, base, tr, o)
			if err != nil {
				return nil, err
			}
			others = append(others, ms...)
		}
		own := append(w.layerMetrics(tr, passes),
			metric{"gc.cycles", float64(gc1.NumGC - gc0.NumGC), "count"},
			metric{"gc.pause_ms_total", float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, "ms"},
			metric{"bench.trace_overhead", medianWall(traced) / medianWall(plain), "ratio"},
			metric{"error_rate", errorRate(cnt), "share"},
		)
		list, err := declaredLayers(append(others, own...))
		if err != nil {
			return nil, err
		}
		res.list = list
		if err := tr.write(filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = cnt.attempted, cnt.failed
	res.Correct = cnt.failed == 0 && cnt.attempted > 0
	res.Metrics = map[string]metricValue{}
	for _, m := range res.list {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return res, nil
}

// onePass sets up another workload and runs one traced pass of it,
// counting its checks with the run's, and returns its named and per-layer
// figures.
func onePass(name string, base ctx, tr *tracer, o options) ([]metric, error) {
	w, err := newWorkload(name, o.sz, o.seed)
	if err != nil {
		return nil, err
	}
	c := base
	c.tr, c.workload, c.pass = tr, name, -1
	if err := w.setup(c); err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	c.pass = 1
	ps, err := w.pass(c)
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", name, err)
	}
	ps.traced = true
	return w.layerMetrics(tr, []passStats{ps}), nil
}

func errorRate(c *counters) float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// endToEnd computes the end-to-end metrics every workload reports.
func endToEnd(setups []float64, passes []passStats) []metric {
	var walls, ops, usPerEvent, perByte []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		for _, d := range p.ops {
			ops = append(ops, ms(d))
		}
		if p.events > 0 {
			usPerEvent = append(usPerEvent, perEvent(p.eventTime, p.events)/1e3)
		}
		if p.byteEvents > 0 {
			perByte = append(perByte, float64(p.bytes)/float64(p.byteEvents))
		}
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"pass_s", median(walls), "s"},
		{"op_ms_p50", percentile(ops, 0.50), "ms"},
		{"op_ms_p90", percentile(ops, 0.90), "ms"},
		{"us_per_event", median(usPerEvent), "us"},
		{"bytes_per_event", median(perByte), "B/event"},
		{"rss_peak_mb", rssPeakMB(), "MB"},
	}
}

// declaredLayers orders per-layer metrics as layerNames declares them,
// and fails when a declared metric is missing or an undeclared one is
// present: the printed set must match BENCHMARK.json exactly.
func declaredLayers(ms []metric) ([]metric, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	var out []metric
	var missing []string
	for _, n := range layerNames {
		m, ok := byName[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out = append(out, m)
		delete(byName, n)
	}
	if len(missing) > 0 || len(byName) > 0 {
		var extra []string
		for n := range byName {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("per-layer metrics out of date: missing %v, undeclared %v", missing, extra)
	}
	return out, nil
}

func medianWall(ps []passStats) float64 {
	var v []float64
	for _, p := range ps {
		v = append(v, p.wall.Seconds())
	}
	return median(v)
}

// workers is the worker-goroutine budget: the CPUs the process may use,
// less one left to the Go runtime (the garbage collector and the VM's
// thread hand-offs). Saturating every CPU of a small machine makes the
// timings swing with the collector's schedule.
func workers() int {
	return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))-1)
}
