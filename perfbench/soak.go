package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"debugdet/internal/checkpoint"
	"debugdet/internal/core"
	"debugdet/internal/flightrec"
	"debugdet/internal/rcse"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// soak is the record-soak workload: always-on production recording. A
// pass runs each soak scenario — a scaled bank (shared-memory heavy) and a
// scaled dynokv-staleread (simulated-network heavy) — bare with the
// oracle trace off, plain with it on, under each stock recorder and RCSE,
// and through the flight recorder, all at the same seed, then seeks into
// the retained tail of the flight recorder's spill directory and captures
// a checkpoint there. Set-up prepares RCSE (profiling) for both scenarios.
type soak struct {
	sz    sizes
	seed  int64
	scens []*soakScenario
	spill string
}

type soakScenario struct {
	s      *scenario.Scenario
	params scenario.Params
	seed   int64
	rcse   rcse.Config
}

// soakRing is the flight recorder's in-memory ring, in segments.
const soakRing = 2

// The run kinds of one soak scenario, in pass order.
const (
	kindBare     = "bare"
	kindTraced   = "traced"
	kindFlight   = "flightrec"
	kindTailSeek = "tail-seek"
)

// recordedKinds are the recorded production runs rec_us_per_event covers.
var recordedKinds = []string{"perfect", "value", "output", "failure", "debug-rcse", kindFlight}

func newSoak(sz sizes, seed int64) *soak { return &soak{sz: sz, seed: seed} }

func (w *soak) setup(c ctx) error {
	w.scens = w.scens[:0]
	for _, sc := range []struct {
		name   string
		params scenario.Params
	}{
		{"bank", scenario.Params{"transfers": w.sz.soakTransfers}},
		{"dynokv-staleread", scenario.Params{"rounds": w.sz.soakRounds}},
	} {
		s, err := workload.ByName(sc.name)
		if err != nil {
			return err
		}
		ss := &soakScenario{s: s, params: sc.params, seed: mixSeed(w.seed, int64(len(w.scens))) % 1_000_000}
		c.call(0, "rcse", "core.PrepareRCSE", sc.name, func(int) work {
			ss.rcse, err = core.PrepareRCSE(s, core.Options{Seed: ss.seed, Params: sc.params})
			return work{}
		})
		if err != nil {
			return fmt.Errorf("prepare RCSE for %s: %w", sc.name, err)
		}
		w.scens = append(w.scens, ss)
	}
	w.spill = filepath.Join(c.workDir, "spill")
	return os.MkdirAll(w.spill, 0o755)
}

// soakRun is one measured production run of a pass.
type soakRun struct {
	kind   string
	dur    time.Duration
	events uint64
}

func (w *soak) pass(c ctx) (passStats, error) {
	ps := passStats{named: map[string]float64{}}
	start := time.Now()
	var runs []soakRun
	var rcseBytes int64
	var rcseEvents, rcseFull uint64
	for _, ss := range w.scens {
		r, rec := w.scenarioPass(c, ss, ps.named)
		runs = append(runs, r...)
		if rec != nil {
			rcseBytes += rec.LogBytes
			rcseEvents += rec.EventCount
			rcseFull += uint64(len(rec.Full))
		}
	}
	ps.wall = time.Since(start)
	perKind := map[string]soakRun{}
	for _, r := range runs {
		if r.kind != kindTailSeek {
			ps.ops = append(ps.ops, r.dur)
		}
		k := perKind[r.kind]
		k.dur += r.dur
		k.events += r.events
		perKind[r.kind] = k
	}
	for _, kind := range recordedKinds {
		k := perKind[kind]
		ps.eventTime += k.dur
		ps.events += k.events
		ps.named["rec_us_per_event."+kind] = perEvent(k.dur, k.events) / 1e3
	}
	ps.bytes, ps.byteEvents = rcseBytes, rcseEvents
	ps.named["log_bytes_per_event.debug-rcse"] = ratio(float64(rcseBytes), float64(rcseEvents))
	ps.named["rcse.full_event_share"] = ratio(float64(rcseFull), float64(rcseEvents))
	return ps, nil
}

// scenarioPass runs every kind of one soak scenario, checks each, and
// returns the runs that passed their checks (bare first) and the RCSE
// recording (nil when it failed). It files the cost model's overhead of
// each recording under named.
func (w *soak) scenarioPass(c ctx, ss *soakScenario, named map[string]float64) (runs []soakRun, rcseRec *record.Recording) {
	name := ss.s.Name
	tag := func(kind string) string { return name + "/" + kind }

	// The bare run fixes the event count and failure identity every other
	// run at this seed must reproduce: recording never perturbs the run.
	var bare *scenario.RunView
	d := c.call(0, "vm", "Scenario.Exec", tag(kindBare), func(int) work {
		bare = ss.s.Exec(scenario.ExecOptions{Seed: ss.seed, Params: ss.params, DisableTrace: true})
		return work{events: bare.Result.Steps}
	})
	events := bare.Result.Steps
	failed, sig := ss.s.CheckFailure(bare)
	if events == 0 {
		c.op(fmt.Errorf("%s: no events", tag(kindBare)))
	} else {
		c.op(nil)
	}
	runs = append(runs, soakRun{kindBare, d, events})
	same := func(kind string, n uint64, f bool, s string) error {
		if n != events || f != failed || s != sig {
			return fmt.Errorf("%s: %d events, failure %v %q; bare run %d events, failure %v %q",
				tag(kind), n, f, s, events, failed, sig)
		}
		return nil
	}

	var traced *scenario.RunView
	d = c.call(0, "trace", "Scenario.Exec", tag(kindTraced), func(int) work {
		traced = ss.s.Exec(scenario.ExecOptions{Seed: ss.seed, Params: ss.params})
		return work{events: traced.Result.Steps}
	})
	f, s := ss.s.CheckFailure(traced)
	err := same(kindTraced, traced.Result.Steps, f, s)
	if err == nil && (traced.Trace == nil || uint64(len(traced.Trace.Events)) != events) {
		err = fmt.Errorf("%s: oracle trace missing or short", tag(kindTraced))
	}
	c.op(err)
	runs = append(runs, soakRun{kindTraced, d, events})

	for _, m := range record.AllModels() {
		factory := record.FactoryFor(record.PolicyFor(m))
		if m == record.DebugRCSE {
			factory = func(mc *vm.Machine) (record.Policy, []vm.Observer) {
				setup := ss.rcse.Build(mc)
				return setup.Policy, setup.Observers
			}
		}
		var rec *record.Recording
		d = c.call(0, "record", "record.RecordWithPolicy", tag(m.String()), func(int) work {
			rec, _, err = record.RecordWithPolicy(ss.s, m, factory, ss.seed, ss.params)
			if err != nil {
				return work{}
			}
			return work{events: rec.EventCount, bytes: rec.LogBytes}
		})
		if err == nil {
			err = same(m.String(), rec.EventCount, rec.Failed, rec.FailureSig)
		}
		c.op(err)
		if err != nil {
			continue
		}
		runs = append(runs, soakRun{m.String(), d, events})
		named["record.overhead_modeled."+m.String()+"."+name] = rec.Overhead
		if m == record.DebugRCSE {
			rcseRec = rec
		}
	}

	fr, dur, err := w.flightPass(c, ss, tag)
	if err == nil {
		err = same(kindFlight, fr.Events, fr.Failed, fr.FailureSig)
	}
	c.op(err)
	if err == nil {
		runs = append(runs, soakRun{kindFlight, dur, events})
		seek, err := w.tailSeek(c, ss, fr, tag)
		c.op(err)
		runs = append(runs, soakRun{kindTailSeek, seek, 0})
	}
	return runs, rcseRec
}

// flightPass records the scenario through the flight recorder and checks
// that the run spilled and kept its memory within the ring bound.
func (w *soak) flightPass(c ctx, ss *soakScenario, tag func(string) string) (*flightrec.RecordResult, time.Duration, error) {
	dir := filepath.Join(w.spill, ss.s.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	var fr *flightrec.RecordResult
	var err error
	d := c.call(0, "flightrec", "flightrec.Record", tag(kindFlight), func(int) work {
		fr, err = flightrec.Record(ss.s, ss.seed, ss.params, flightrec.Options{
			Interval: uint64(w.sz.interval), RingSegments: soakRing, SpillDir: dir, Retention: 2 * soakRing})
		if err != nil {
			return work{}
		}
		return work{events: fr.Events, bytes: fr.PeakMemBytes, items: int64(fr.Spilled)}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", tag(kindFlight), err)
	}
	if fr.Spilled == 0 {
		return fr, d, fmt.Errorf("%s: nothing spilled over %d segments", tag(kindFlight), fr.Segments)
	}
	// The ring, the segment being built and the one being spilled, each
	// an average segment with its boundary snapshot, with 2x headroom.
	bound := 2 * int64(soakRing+2) * (fr.LogBytes + fr.CheckpointBytes) / int64(fr.Segments)
	if fr.PeakMemBytes > bound {
		return fr, d, fmt.Errorf("%s: peak memory %d over the ring bound %d", tag(kindFlight), fr.PeakMemBytes, bound)
	}
	return fr, d, nil
}

// tailSeek reopens the spill directory, seeks to a seeded position inside
// its retained tail and checks that the replayed suffix is the recorded
// one. It returns the open-plus-seek time.
func (w *soak) tailSeek(c ctx, ss *soakScenario, fr *flightrec.RecordResult, tag func(string) string) (time.Duration, error) {
	var st *flightrec.DiskStore
	var err error
	open := c.call(0, "flightrec", "flightrec.Open", tag(kindTailSeek), func(int) work {
		st, err = flightrec.Open(fr.Store.Dir())
		return work{}
	})
	if err != nil {
		return open, fmt.Errorf("%s: open: %w", tag(kindTailSeek), err)
	}
	lo, hi := flightrec.Retained(st)
	if lo == 0 || hi != fr.Events {
		return open, fmt.Errorf("%s: retained [%d, %d) of %d events", tag(kindTailSeek), lo, hi, fr.Events)
	}
	rng := rand.New(rand.NewSource(mixSeed(w.seed, int64(lo))))
	target := lo + uint64(rng.Int63n(int64(hi-lo)))
	var sess *replay.SeekSession
	seek := c.call(0, "replay", "replay.SeekStore", tag(kindTailSeek), func(int) work {
		sess, err = replay.SeekStore(ss.s, st, target, replay.Options{})
		if err != nil {
			return work{}
		}
		return work{events: target - sess.SuffixFrom}
	})
	if err != nil {
		return open + seek, fmt.Errorf("%s: seek %d: %w", tag(kindTailSeek), target, err)
	}
	var snap *vm.Snapshot
	c.call(0, "checkpoint", "Machine.Snapshot", tag(kindTailSeek), func(int) work {
		snap = sess.Machine.Snapshot(vm.NoRunningThread)
		return work{bytes: checkpoint.SnapshotSize(snap), items: 1}
	})
	if snap.Seq != target {
		sess.Close()
		return open + seek, fmt.Errorf("%s: snapshot at %d, session at %d", tag(kindTailSeek), snap.Seq, target)
	}
	view, ok := sess.RunToEnd()
	if !ok || !sess.FromCheckpoint {
		return open + seek, fmt.Errorf("%s: suffix replay from %d ok=%v, from checkpoint %v", tag(kindTailSeek), target, ok, sess.FromCheckpoint)
	}
	want, err := flightrec.EventRange(st, target, hi)
	if err != nil {
		return open + seek, err
	}
	got := view.Trace.Events[target-sess.SuffixFrom:]
	if len(got) != len(want) {
		return open + seek, fmt.Errorf("%s: replayed %d suffix events, recorded %d", tag(kindTailSeek), len(got), len(want))
	}
	for i := range got {
		if !replay.EventsMatch(&got[i], &want[i]) {
			return open + seek, fmt.Errorf("%s: event %d differs from the recording", tag(kindTailSeek), want[i].Seq)
		}
	}
	return open + seek, nil
}

func (w *soak) layerMetrics(tr *tracer, passes []passStats) []metric {
	const wl = "record-soak"
	var out []metric
	for _, kind := range recordedKinds {
		out = append(out, namedMedian(passes, "rec_us_per_event."+kind, "us"))
	}
	out = append(out,
		namedMedian(passes, "log_bytes_per_event.debug-rcse", "B/event"),
		namedMedian(passes, "rcse.full_event_share", "share"),
	)

	// One table per traced pass: span sums by tag, where a tag is
	// "<scenario>/<kind>" and a bare kind sums over both scenarios.
	var tables []map[string]sum
	for _, spans := range byPass(timed(tr.find(wl, "", ""))) {
		t := map[string]sum{}
		for _, s := range spans {
			_, kind, _ := strings.Cut(s.Tag, "/")
			t[s.Tag] = t[s.Tag].add(s)
			t[kind] = t[kind].add(s)
		}
		tables = append(tables, t)
	}
	over := func(f func(t map[string]sum) float64) float64 {
		var v []float64
		for _, t := range tables {
			v = append(v, f(t))
		}
		return median(v)
	}
	// ns is a kind's wall time per event of the pass's production runs.
	ns := func(t map[string]sum, kind string) float64 { return perEvent(t[kind].d, t[kindBare].events) }
	vmNS := over(func(t map[string]sum) float64 { return ns(t, kindBare) })
	traceNS := over(func(t map[string]sum) float64 { return ns(t, kindTraced) - ns(t, kindBare) })
	out = append(out,
		metric{"vm.ns_per_event", vmNS, "ns"},
		metric{"vm.trace_ns_per_event", traceNS, "ns"},
	)

	// Additivity: the three layer costs against the end-to-end recording
	// cost per event of the untraced passes.
	var plain []passStats
	for _, p := range passes {
		if !p.traced {
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 {
		plain = passes // a single traced pass: compare it with itself
	}
	var leftover []float64
	for _, m := range record.AllModels() {
		k := m.String()
		recNS := over(func(t map[string]sum) float64 { return ns(t, k) - ns(t, kindTraced) })
		alloc := over(func(t map[string]sum) float64 {
			return float64(int64(t[k].alloc)-int64(t[kindTraced].alloc)) / float64(max(t[kindBare].events, 1))
		})
		share := 0.0
		if e2e := namedMedian(plain, "rec_us_per_event."+k, "us").Value * 1e3; e2e > 0 {
			share = (e2e - vmNS - traceNS - recNS) / e2e
		}
		leftover = append(leftover, math.Abs(share))
		out = append(out,
			metric{"record.ns_per_event." + k, recNS, "ns"},
			metric{"record.alloc_bytes_per_event." + k, alloc, "B"},
			metric{"bench.unattributed_share." + k, share, "share"},
		)
	}
	out = append(out, metric{"bench.unattributed_share", mean(leftover), "share"})

	// Measured against modeled overhead, per scenario: the recorded run's
	// wall time over the bare run's at the same seed, beside the cost
	// model's Recording.Overhead.
	for _, ss := range w.scens {
		name := ss.s.Name
		for _, m := range record.AllModels() {
			k := m.String()
			out = append(out,
				metric{"record.overhead_measured." + k + "." + name, over(func(t map[string]sum) float64 {
					return t[name+"/"+k].d.Seconds() / t[name+"/"+kindBare].d.Seconds()
				}), "ratio"},
				namedMedian(passes, "record.overhead_modeled."+k+"."+name, "ratio"),
			)
		}
	}

	captures := timed(tr.find(wl, "Machine.Snapshot", ""))
	_, _, cb := total(captures)
	var prep []float64
	for _, spans := range byPass(tr.find(wl, "core.PrepareRCSE", "")) {
		d, _, _ := total(spans)
		prep = append(prep, ms(d))
	}
	return append(out,
		metric{"rcse.prepare_ms", median(prep), "ms"},
		metric{"checkpoint.capture_us_per_snapshot", median(durations(captures)) * 1e3, "us"},
		metric{"checkpoint.bytes_per_snapshot", float64(cb) / float64(max(len(captures), 1)), "B"},
		metric{"flightrec.ns_per_event", over(func(t map[string]sum) float64 { return ns(t, kindFlight) - ns(t, kindBare) }), "ns"},
		metric{"flightrec.peak_mem_bytes", over(func(t map[string]sum) float64 { return float64(t[kindFlight].bytes) }), "B"},
		metric{"flightrec.spilled_segments", over(func(t map[string]sum) float64 { return float64(t[kindFlight].items) }), "count"},
		metric{"flightrec.open_ms", median(durations(timed(tr.find(wl, "flightrec.Open", "")))), "ms"},
		metric{"flightrec.tail_seek_ms", median(durations(timed(tr.find(wl, "replay.SeekStore", "")))), "ms"},
	)
}

// sum accumulates the spans of one tag within a pass.
type sum struct {
	d      time.Duration
	events uint64
	bytes  int64
	items  int64
	alloc  uint64
}

func (x sum) add(s span) sum {
	x.d += s.dur()
	x.events += s.Events
	x.bytes += s.Bytes
	x.items += s.Items
	x.alloc += s.Alloc
	return x
}
