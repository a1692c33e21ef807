package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"debugdet/internal/core"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// session is the debug-session workload: time travel over a saved
// recording. Set-up records a long perfect bank run with checkpoints and
// saves it as a .ddrc file. Each pass loads the file, runs a seeded script
// of repositions — fresh seeks (replay.Seek from the nearest checkpoint,
// then SeekSession.Continue), debugger jumps (Debugger.SeekTo) and reverse
// steps (Debugger.Back) — and ends with one front-to-back replay.
type session struct {
	sz   sizes
	seed int64
	s    *scenario.Scenario

	// Set by setup: the saved file and what it must load back as.
	file      string
	fileBytes int64
	events    uint64
	cps       []uint64
}

// sessionStates is how many repositions per pass are also checked against
// a session replayed from the start; such replays cost up to a whole
// recording each, so only a seeded sample is checked.
const sessionStates = 2

func newSession(sz sizes, seed int64) *session { return &session{sz: sz, seed: seed} }

func (w *session) setup(c ctx) error {
	s, err := workload.ByName("bank")
	if err != nil {
		return err
	}
	w.s = s
	var rec *record.Recording
	c.call(0, "core", "core.RecordOnly", "perfect", func(int) work {
		rec, _, _, err = core.RecordOnly(s, record.Perfect, core.Options{
			Seed:               mixSeed(w.seed, 0) % 1_000_000,
			Params:             scenario.Params{"transfers": w.sz.sessionTransfers},
			CheckpointInterval: w.sz.interval,
		})
		if err != nil {
			return work{}
		}
		return work{events: rec.EventCount, bytes: rec.CheckpointBytes}
	})
	if err != nil {
		return err
	}
	if len(rec.Checkpoints) == 0 || !rec.SchedComplete {
		return fmt.Errorf("recording of %d events has %d checkpoints, complete schedule %v",
			rec.EventCount, len(rec.Checkpoints), rec.SchedComplete)
	}
	w.file = filepath.Join(c.workDir, "session.ddrc")
	c.call(0, "codec", "Recording.Save", "", func(int) work {
		w.fileBytes, err = save(rec, w.file)
		return work{events: rec.EventCount, bytes: w.fileBytes}
	})
	if err != nil {
		return err
	}
	w.events = rec.EventCount
	w.cps = w.cps[:0]
	for _, cp := range rec.Checkpoints {
		w.cps = append(w.cps, cp.Seq)
	}
	return nil
}

func save(rec *record.Recording, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	if err := rec.Save(bw); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func load(path string) (*record.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return record.Load(bufio.NewReader(f))
}

// stateCheck is a reposition whose machine state is compared, after the
// pass's timing ends, with a session replayed from the start.
type stateCheck struct {
	pos  uint64
	snap *vm.Snapshot
}

func (w *session) pass(c ctx) (passStats, error) {
	ps := passStats{named: map[string]float64{}}
	start := time.Now()
	var rec *record.Recording
	var err error
	open := c.call(0, "codec", "record.Load", "", func(int) work {
		rec, err = load(w.file)
		if err != nil {
			return work{}
		}
		return work{events: rec.EventCount, bytes: w.fileBytes}
	})
	if err == nil && (rec.EventCount != w.events || len(rec.Checkpoints) != len(w.cps)) {
		err = fmt.Errorf("loaded %d events and %d checkpoints, saved %d and %d",
			rec.EventCount, len(rec.Checkpoints), w.events, len(w.cps))
	}
	c.op(wrap("open .ddrc", err))
	if err != nil {
		// Nothing to travel through; the failed open is the pass.
		ps.wall = time.Since(start)
		return ps, nil
	}
	ps.named["open_ms"] = ms(open)

	d, err := replay.NewDebugger(w.s, rec, replay.DebugOptions{})
	if err != nil {
		return ps, fmt.Errorf("open debugger: %w", err)
	}
	rng := rand.New(rand.NewSource(mixSeed(w.seed, int64(c.pass)+1)))
	sample := map[int]bool{}
	for len(sample) < min(sessionStates, w.sz.repositions) {
		sample[rng.Intn(w.sz.repositions)] = true
	}
	var checks []stateCheck
	var fallbacks float64
	for i := 0; i < w.sz.repositions; i++ {
		// Targets stop one short of the end, so every position is a paused
		// machine whose state can be snapshotted.
		target := uint64(rng.Int63n(int64(w.events)))
		var lat time.Duration
		var m *vm.Machine
		var pos, want uint64
		var sess *replay.SeekSession
		switch i % 3 {
		case 0:
			base := bestBelow(w.cps, target)
			lat = c.call(0, "checkpoint", "replay.Seek", "restore", func(int) work {
				sess, err = replay.Seek(w.s, rec, base, replay.Options{})
				return work{events: base}
			})
			if err != nil {
				break
			}
			if !sess.FromCheckpoint {
				fallbacks++
			}
			lat += c.call(0, "replay", "SeekSession.Continue", "", func(int) work {
				sess.Continue(target)
				return work{events: target - base}
			})
			m, pos, want = sess.Machine, sess.Pos(), target
		case 1:
			lat = c.call(0, "replay", "Debugger.SeekTo", "", func(int) work {
				err = d.SeekTo(target)
				return work{}
			})
			m, pos, want = d.Machine(), d.Pos(), target
		default:
			back := 1 + uint64(rng.Int63n(2*w.sz.interval))
			want = d.Pos() - min(back, d.Pos())
			lat = c.call(0, "replay", "Debugger.Back", "", func(int) work {
				err = d.Back(back)
				return work{}
			})
			m, pos = d.Machine(), d.Pos()
		}
		if err == nil && pos != want {
			err = fmt.Errorf("landed at %d", pos)
		}
		c.op(wrap(fmt.Sprintf("reposition %d to %d", i, want), err))
		ps.ops = append(ps.ops, lat)
		if err == nil && sample[i] && pos < w.events {
			checks = append(checks, stateCheck{pos, m.Snapshot(vm.NoRunningThread)})
		}
		if sess != nil {
			sess.Close()
		}
	}
	d.Close()

	var rep *replay.Result
	full := c.call(0, "replay", "replay.Replay", "perfect", func(int) work {
		rep = replay.Replay(w.s, rec, replay.Options{})
		return work{events: rep.WorkSteps}
	})
	err = nil
	if !rep.Ok || rep.View.Result.Steps != w.events {
		err = fmt.Errorf("full replay ok=%v (%s)", rep.Ok, rep.Note)
	}
	c.op(err)
	ps.wall = time.Since(start)
	ps.named["replay_full_ms"] = ms(full)
	ps.named["replay.seek_fallbacks"] = fallbacks
	ps.eventTime, ps.events = full, w.events
	ps.bytes, ps.byteEvents = w.fileBytes, w.events

	// Untimed: the sampled states against sessions replayed from the start.
	fromStart := *rec
	fromStart.Checkpoints = nil
	for _, ck := range checks {
		c.op(wrap(fmt.Sprintf("state at %d", ck.pos), checkFromStart(w.s, &fromStart, ck)))
	}
	return ps, nil
}

// checkFromStart replays a checkpoint-free recording up to the check's
// position and compares the machine state.
func checkFromStart(s *scenario.Scenario, rec *record.Recording, ck stateCheck) error {
	ref, err := replay.Seek(s, rec, ck.pos, replay.Options{})
	if err != nil {
		return err
	}
	defer ref.Close()
	if ref.FromCheckpoint || ref.Pos() != ck.pos {
		return fmt.Errorf("reference session at %d (from checkpoint %v)", ref.Pos(), ref.FromCheckpoint)
	}
	return ref.Machine.Snapshot(vm.NoRunningThread).EqualState(ck.snap)
}

// bestBelow returns the largest checkpoint sequence number at or below
// target, or 0 when there is none.
func bestBelow(seqs []uint64, target uint64) uint64 {
	var best uint64
	for _, s := range seqs {
		if s <= target && s > best {
			best = s
		}
	}
	return best
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func (w *session) layerMetrics(tr *tracer, passes []passStats) []metric {
	const wl = "debug-session"
	var seeks []float64
	for _, p := range passes {
		for _, d := range p.ops {
			seeks = append(seeks, ms(d))
		}
	}
	out := []metric{
		namedMedian(passes, "open_ms", "ms"),
		{"seek_ms_p50", percentile(seeks, 0.50), "ms"},
		{"seek_ms_p99", percentile(seeks, 0.99), "ms"},
		namedMedian(passes, "replay_full_ms", "ms"),
		namedMedian(passes, "replay.seek_fallbacks", "count"),
	}

	var restore []float64
	var fed uint64
	var n int
	for _, s := range timed(tr.find(wl, "replay.Seek", "restore")) {
		if s.Events > 0 {
			restore = append(restore, ms(s.dur()))
			fed += s.Events
			n++
		}
	}
	suffix := timed(tr.find(wl, "SeekSession.Continue", ""))
	sd, sev, _ := total(suffix)
	full := timed(tr.find(wl, "replay.Replay", "perfect"))
	fd, fev, _ := total(full)
	save := tr.find(wl, "Recording.Save", "")
	vd, vev, vb := total(save)
	load := timed(tr.find(wl, "record.Load", ""))
	ld, lev, _ := total(load)
	return append(out,
		metric{"checkpoint.restore_ms", median(restore), "ms"},
		metric{"checkpoint.restore_feed_events", float64(fed) / float64(max(n, 1)), "count"},
		metric{"replay.seek_suffix_events", float64(sev) / float64(max(len(suffix), 1)), "count"},
		metric{"replay.seek_suffix_ns_per_event", perEvent(sd, sev), "ns"},
		metric{"replay.perfect_ns_per_event", perEvent(fd, fev), "ns"},
		metric{"codec.save_ns_per_event", perEvent(vd, vev), "ns"},
		metric{"codec.load_ns_per_event", perEvent(ld, lev), "ns"},
		metric{"codec.bytes_per_event", float64(vb) / float64(max(vev, 1)), "B/event"},
	)
}
