package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"debugdet/internal/core"
	"debugdet/internal/metrics"
	"debugdet/internal/rcse"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// defaultSearchSeed is core's default inference seed, the one the
// fidelity pins hold at.
const defaultSearchSeed = 7

// corpus is the corpus-eval workload: the paper's experimental loop. Every
// determinism model runs over every corpus scenario; each cell records,
// replays and computes DF/DE at the default budget, and the cells of a
// pass are spread over the worker budget.
//
// Set-up builds the cell grid and runs one warm-up pass at a search seed
// drawn from the workload seed, checking the rows whose fidelity holds at
// any search seed. Timed passes run at the default search seed, in an
// order drawn from the workload seed, and check every cell against the
// pins.
type corpus struct {
	sz    sizes
	seed  int64
	pins  map[string]map[record.Model]float64
	cells []cell
}

type cell struct {
	s *scenario.Scenario
	m record.Model
}

// cellStats is one finished cell.
type cellStats struct {
	cell
	dur       time.Duration
	eventTime time.Duration
	events    uint64 // recorded events plus replay work steps
	recEvents uint64
	logBytes  int64
	attempts  int
	workSteps uint64
	accepted  bool
}

func newCorpus(sz sizes, seed int64) *corpus {
	return &corpus{sz: sz, seed: seed, pins: fullMatrixPins()}
}

func (w *corpus) setup(c ctx) error {
	scens := workload.All()
	if w.sz.corpusScenarios > 0 {
		scens = scens[:w.sz.corpusScenarios]
	} else if len(scens) != len(w.pins) {
		return fmt.Errorf("corpus has %d scenarios, the pins cover %d", len(scens), len(w.pins))
	}
	w.cells = w.cells[:0]
	for _, s := range scens {
		if _, ok := w.pins[s.Name]; !ok {
			return fmt.Errorf("no fidelity pins for scenario %s", s.Name)
		}
		for _, m := range record.AllModels() {
			w.cells = append(w.cells, cell{s, m})
		}
	}
	searchSeed := mixSeed(w.seed, int64(c.pass)) % 1_000_003
	if searchSeed == defaultSearchSeed {
		searchSeed++
	}
	w.runCells(c, w.cells, searchSeed)
	return nil
}

func (w *corpus) pass(c ctx) (passStats, error) {
	order := append([]cell(nil), w.cells...)
	rng := rand.New(rand.NewSource(mixSeed(w.seed, int64(c.pass))))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	start := time.Now()
	done := w.runCells(c, order, defaultSearchSeed)
	ps := passStats{wall: time.Since(start), named: map[string]float64{}}
	ps.named["corpus_pass_s"] = ps.wall.Seconds()
	var searchAttempts, searchAccepted float64
	for _, cs := range done {
		ps.ops = append(ps.ops, cs.dur)
		ps.eventTime += cs.eventTime
		ps.events += cs.events
		ps.bytes += cs.logBytes
		ps.byteEvents += cs.recEvents
		m := cs.m.String()
		ps.named["infer.attempts."+m] += float64(cs.attempts)
		ps.named["infer.worksteps."+m] += float64(cs.workSteps)
		if cs.m == record.Output || cs.m == record.Failure {
			searchAttempts += float64(cs.attempts)
			if cs.accepted {
				searchAccepted++
			}
		}
	}
	ps.named["infer.accepted_share"] = searchAccepted / math.Max(searchAttempts, 1)
	return ps, nil
}

// runCells evaluates the cells over the worker budget and returns them in
// completion order.
func (w *corpus) runCells(c ctx, cells []cell, searchSeed int64) []cellStats {
	next := make(chan cell)
	var mu sync.Mutex
	var done []cellStats
	var wg sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cl := range next {
				cs, err := w.evalCell(c, cl, searchSeed)
				c.op(err)
				mu.Lock()
				done = append(done, cs)
				mu.Unlock()
			}
		}()
	}
	for _, cl := range cells {
		next <- cl
	}
	close(next)
	wg.Wait()
	return done
}

// evalCell is core.Evaluate taken apart at its layer boundaries, so that
// each call is timed on its own: RCSE preparation, the recorded
// production run, the replay (an inference search for output and failure
// determinism) and the fidelity metrics.
func (w *corpus) evalCell(c ctx, cl cell, searchSeed int64) (cellStats, error) {
	s, model, tag := cl.s, cl.m, cl.m.String()
	cs := cellStats{cell: cl}
	var err error
	var rec *record.Recording
	var orig *scenario.RunView
	var rep *replay.Result
	var fid metrics.Fidelity
	cs.dur = c.call(0, "core", "cell", tag, func(id int) work {
		factory := record.FactoryFor(record.PolicyFor(model))
		if model == record.DebugRCSE {
			var cfg rcse.Config
			c.call(id, "rcse", "core.PrepareRCSE", tag, func(int) work {
				cfg, err = core.PrepareRCSE(s, core.Options{})
				return work{}
			})
			if err != nil {
				return work{}
			}
			factory = func(m *vm.Machine) (record.Policy, []vm.Observer) {
				setup := cfg.Build(m)
				return setup.Policy, setup.Observers
			}
		}
		cs.eventTime += c.call(id, "record", "record.RecordWithPolicy", tag, func(int) work {
			rec, orig, err = record.RecordWithPolicy(s, model, factory, s.DefaultSeed, nil)
			if err != nil {
				return work{}
			}
			return work{events: rec.EventCount, bytes: rec.LogBytes}
		})
		if err != nil {
			return work{}
		}
		layer := "replay"
		if model == record.Output || model == record.Failure {
			layer = "infer"
		}
		cs.eventTime += c.call(id, layer, "replay.Replay", tag, func(int) work {
			rep = replay.Replay(s, rec, replay.Options{Budget: 200, SearchSeed: searchSeed, Workers: 1})
			return work{events: rep.WorkSteps}
		})
		c.call(id, "metrics", "metrics.ComputeFidelity", tag, func(int) work {
			var view *scenario.RunView
			if rep.Ok {
				view = rep.View
			}
			fid = metrics.ComputeFidelity(s, orig, view)
			return work{}
		})
		return work{events: rec.EventCount + rep.WorkSteps, bytes: rec.LogBytes}
	})
	if err != nil {
		return cs, fmt.Errorf("%s/%s: %w", s.Name, tag, err)
	}
	cs.recEvents, cs.logBytes = rec.EventCount, rec.LogBytes
	cs.attempts, cs.workSteps, cs.accepted = rep.Attempts, rep.WorkSteps, rep.Ok
	cs.events = rec.EventCount + rep.WorkSteps
	return cs, w.checkCell(cl, searchSeed, rec, rep, fid)
}

// checkCell holds a cell to its pin and to the framework's universal
// invariants (those TestFullMatrix checks on every cell).
func (w *corpus) checkCell(cl cell, searchSeed int64, rec *record.Recording, rep *replay.Result, fid metrics.Fidelity) error {
	name := cl.s.Name + "/" + cl.m.String()
	if rep.Err != nil {
		return fmt.Errorf("%s: replay: %w", name, rep.Err)
	}
	want, pinned := w.pins[cl.s.Name][cl.m]
	if searchSeed != defaultSearchSeed {
		want, pinned = 1, seedIndependent(cl.m)
	}
	if pinned && math.Abs(fid.DF-want) > 0.001 {
		return fmt.Errorf("%s at search seed %d: DF = %.3f, want %.3f (%s)", name, searchSeed, fid.DF, want, fid)
	}
	if rec.Overhead < 1 {
		return fmt.Errorf("%s: modeled overhead %v below 1", name, rec.Overhead)
	}
	if cl.m == record.Failure && rec.LogBytes != 0 {
		return fmt.Errorf("%s: failure determinism recorded %d bytes", name, rec.LogBytes)
	}
	if cl.m == record.Perfect && rep.Attempts != 1 {
		return fmt.Errorf("%s: perfect replay took %d attempts", name, rep.Attempts)
	}
	return nil
}

func (w *corpus) layerMetrics(tr *tracer, passes []passStats) []metric {
	out := []metric{namedMedian(passes, "corpus_pass_s", "s")}
	for _, m := range record.AllModels() {
		out = append(out,
			namedMedian(passes, "infer.attempts."+m.String(), "count"),
			namedMedian(passes, "infer.worksteps."+m.String(), "count"))
	}
	out = append(out, namedMedian(passes, "infer.accepted_share", "share"))
	return append(out, w.spanMetrics(tr)...)
}

// spanMetrics derives the inference cost and the core shares of a pass
// from the spans of traced passes.
func (w *corpus) spanMetrics(tr *tracer) []metric {
	const wl = "corpus-eval"
	var perStep, prep, recShare, repShare []float64
	cellsByPass := byPass(timed(tr.find(wl, "cell", "")))
	for _, cells := range cellsByPass {
		pass := cells[0].Pass
		cellTime, _, _ := total(cells)
		var infer []span
		for _, m := range []record.Model{record.Output, record.Failure} {
			infer = append(infer, passOf(tr.find(wl, "replay.Replay", m.String()), pass)...)
		}
		d, steps, _ := total(infer)
		perStep = append(perStep, perEvent(d, steps))
		share := func(call string) float64 {
			d, _, _ := total(passOf(tr.find(wl, call, ""), pass))
			return d.Seconds() / cellTime.Seconds()
		}
		prep = append(prep, share("core.PrepareRCSE"))
		recShare = append(recShare, share("record.RecordWithPolicy"))
		repShare = append(repShare, share("replay.Replay"))
	}
	return []metric{
		{"infer.ns_per_workstep", median(perStep), "ns"},
		{"core.prepare_share", median(prep), "share"},
		{"core.record_share", median(recShare), "share"},
		{"core.replay_share", median(repShare), "share"},
	}
}

// namedMedian is the median over passes of one named figure.
func namedMedian(passes []passStats, name, unit string) metric {
	var v []float64
	for _, p := range passes {
		if x, ok := p.named[name]; ok {
			v = append(v, x)
		}
	}
	return metric{name, median(v), unit}
}

// timed keeps the spans of timed passes, dropping set-up's.
func timed(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Pass >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// passOf keeps the spans of one pass.
func passOf(spans []span, pass int) []span {
	var out []span
	for _, s := range spans {
		if s.Pass == pass {
			out = append(out, s)
		}
	}
	return out
}

// mixSeed derives an independent non-negative seed from a seed and an
// index.
func mixSeed(seed, i int64) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h &^ (1 << 63))
}
