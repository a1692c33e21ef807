package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// Recording is the persisted artifact of one recorded production run: what
// the developer has available at debug time. Depending on the model it
// ranges from a complete event log (perfect) down to just a failure
// signature (failure determinism).
type Recording struct {
	Scenario string
	Model    Model
	Seed     int64 // scheduler seed of the original run (identity only)
	Params   scenario.Params

	// Full are the fully recorded events, in global order.
	Full []trace.Event
	// Sched is the schedule stream (thread per recorded decision).
	Sched []trace.ThreadID
	// SchedComplete reports whether Sched covers every event of the run,
	// i.e. whether it can drive a strict ReplayScheduler.
	SchedComplete bool

	// Failed and FailureSig describe the run's terminal condition as a
	// bug report would: the signature is produced by the scenario's
	// failure specification. Failure determinism records only this.
	Failed     bool
	FailureSig string

	// Streams maps stream object IDs to names, so replayers can resolve
	// recorded input/output events to streams before rebuilding the
	// machine.
	Streams []string

	// Checkpoints are the periodic VM state snapshots captured during the
	// recorded run (Options.CheckpointInterval; perfect-model recordings
	// only), in trace order. They power seek and segmented replay over
	// the recording's store (flightrec.NewRecordingStore); recordings
	// without them — including every v1 format file — replay
	// front-to-back.
	Checkpoints []*vm.Snapshot
	// CheckpointBytes is the encoded volume of the checkpoints, kept
	// separate from LogBytes so the overhead tables can attribute it.
	CheckpointBytes int64

	// LogBytes is the recorded volume; Overhead the measured runtime
	// overhead ratio; BaseCycles/TotalCycles the run's virtual times;
	// EventCount the events observed.
	LogBytes    int64
	Overhead    float64
	BaseCycles  uint64
	TotalCycles uint64
	EventCount  uint64

	// index caches the restore index over Full; see RestoreIndex. A
	// pointer, so value copies of a Recording share one cache.
	index *lazyIndex
}

// lazyIndex holds a recording's restore index, built once on first use.
type lazyIndex struct {
	once sync.Once
	x    *checkpoint.Index
}

// RestoreIndex returns the restore index over the recording's events
// (checkpoint.Index: per-thread feeds, schedule, recorded inputs and
// stream histories for any snapshot). It is built on first use and then
// shared by every caller: Load's snapshot rehydration and every
// flightrec.RecordingStore over the recording, so every seek. It is safe
// for concurrent use; Full and Streams must not change once it is built.
// A Recording made by neither Capture nor Load has no cache and builds a
// fresh index per call.
func (r *Recording) RestoreIndex() *checkpoint.Index {
	if r.index == nil {
		return checkpoint.NewIndex(r.Streams, r.Full)
	}
	r.index.once.Do(func() { r.index.x = checkpoint.NewIndex(r.Streams, r.Full) })
	return r.index.x
}

// Capture finalizes a recording after the recorded run finished: it stores
// the recorder's streams and the run's failure identity and overhead
// numbers.
func Capture(s *scenario.Scenario, view *scenario.RunView, r *Recorder, model Model, seed int64, params scenario.Params) *Recording {
	failed, sig := s.CheckFailure(view)
	return &Recording{
		Scenario:      s.Name,
		Model:         model,
		Seed:          seed,
		Params:        params,
		Full:          r.full,
		Sched:         r.sched,
		SchedComplete: r.schedComplete,
		Streams:       view.Machine.StreamNames(),
		Failed:        failed,
		FailureSig:    sig,
		LogBytes:      r.bytes,
		Overhead:      view.Result.Overhead(),
		BaseCycles:    view.Result.BaseCycles(),
		TotalCycles:   view.Result.TotalCycles(),
		EventCount:    r.events,
		index:         new(lazyIndex),
	}
}

// StreamName resolves a stream object ID against the recorded table.
func (r *Recording) StreamName(id trace.ObjID) string {
	if int(id) < len(r.Streams) {
		return r.Streams[id]
	}
	return ""
}

// InputsByStream extracts the recorded input values per stream name, in
// recorded order. Only meaningful for streams the model recorded
// completely.
func (r *Recording) InputsByStream() map[string][]trace.Value {
	out := make(map[string][]trace.Value)
	for _, e := range r.Full {
		if e.Kind == trace.EvInput {
			name := r.StreamName(e.Obj)
			out[name] = append(out[name], e.Val)
		}
	}
	return out
}

// OutputsByStream extracts the recorded output values per stream name.
func (r *Recording) OutputsByStream() map[string][]trace.Value {
	out := make(map[string][]trace.Value)
	for _, e := range r.Full {
		if e.Kind == trace.EvOutput {
			name := r.StreamName(e.Obj)
			out[name] = append(out[name], e.Val)
		}
	}
	return out
}

// EventsByThread splits the fully recorded events per thread (the
// per-thread value logs value determinism replays against).
func (r *Recording) EventsByThread() map[trace.ThreadID][]trace.Event {
	out := make(map[trace.ThreadID][]trace.Event)
	for _, e := range r.Full {
		out[e.TID] = append(out[e.TID], e)
	}
	return out
}

// SegmentBounds returns the checkpoint-delimited segment starts of the
// recording: 0 plus every interior checkpoint sequence (a checkpoint
// landing exactly at the end of the event stream delimits nothing and is
// excluded). These are the [from, to) starts segmented replay and the
// flight-recorder store adapter partition the event stream on.
func (r *Recording) SegmentBounds() []uint64 {
	bounds := []uint64{0}
	for _, cp := range r.Checkpoints {
		if cp.Seq > 0 && cp.Seq < uint64(len(r.Full)) {
			bounds = append(bounds, cp.Seq)
		}
	}
	return bounds
}

// Summary renders the recording for logs and CLI output.
func (r *Recording) Summary() string {
	return fmt.Sprintf("%s/%s seed=%d events=%d full=%d sched=%d bytes=%d overhead=%.2fx failed=%v sig=%q",
		r.Scenario, r.Model, r.Seed, r.EventCount, len(r.Full), len(r.Sched),
		r.LogBytes, r.Overhead, r.Failed, r.FailureSig)
}

// Recording file format: magic, version, then a trace.Log (header carries
// scenario/model/params/labels; events are the Full stream), then the
// schedule stream as varint-delta thread IDs, then (v2) the checkpoint
// snapshot section. v1 files — written before checkpoints existed — load
// cleanly with no checkpoints; Save always writes the current version.
const (
	recMagic         = "DDRC"
	recVersion       = 2
	recVersionLegacy = 1
)

// ErrBadRecording reports a malformed recording file.
var ErrBadRecording = errors.New("record: malformed recording")

// Save writes the recording to w in the current format version.
func (r *Recording) Save(w io.Writer) error { return r.saveVersion(w, recVersion) }

// saveVersion writes the recording in a specific format version. Only the
// backward-compatibility tests write the legacy version; Save always
// writes the current one.
func (r *Recording) saveVersion(w io.Writer, ver byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(recMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(ver); err != nil {
		return err
	}
	l := trace.NewLog(trace.Header{
		Scenario: r.Scenario,
		Model:    r.Model.String(),
		Seed:     r.Seed,
		Params:   map[string]int64(r.Params),
		Labels: map[string]string{
			"failed":        fmt.Sprintf("%v", r.Failed),
			"failure_sig":   r.FailureSig,
			"sched_done":    fmt.Sprintf("%v", r.SchedComplete),
			"log_bytes":     fmt.Sprintf("%d", r.LogBytes),
			"overhead_mlli": fmt.Sprintf("%d", int64(r.Overhead*1000)),
			"base_cycles":   fmt.Sprintf("%d", r.BaseCycles),
			"total_cycles":  fmt.Sprintf("%d", r.TotalCycles),
			"event_count":   fmt.Sprintf("%d", r.EventCount),
			"ckpt_bytes":    fmt.Sprintf("%d", r.CheckpointBytes),
			"streams":       strings.Join(r.Streams, "\x1f"),
		},
	})
	l.Events = r.Full
	if _, err := trace.Encode(bw, l); err != nil {
		return err
	}
	wire.WriteUvarint(bw, uint64(len(r.Sched)))
	prev := int64(0)
	for _, tid := range r.Sched {
		wire.WriteVarint(bw, int64(tid)-prev)
		prev = int64(tid)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if ver < recVersion {
		return nil
	}
	_, err := checkpoint.EncodeSnapshots(w, r.Checkpoints)
	return err
}

// Load reads a recording written by Save.
func Load(rd io.Reader) (*Recording, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
	}
	if string(magic) != recMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadRecording)
	}
	ver, err := br.ReadByte()
	if err != nil || (ver != recVersion && ver != recVersionLegacy) {
		return nil, fmt.Errorf("%w: bad version", ErrBadRecording)
	}
	l, err := trace.Decode(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRecording, err)
	}
	model, err := ParseModel(l.Header.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRecording, err)
	}
	r := &Recording{
		Scenario: l.Header.Scenario,
		Model:    model,
		Seed:     l.Header.Seed,
		Params:   scenario.Params(l.Header.Params),
		Full:     l.Events,
		index:    new(lazyIndex),
	}
	lab := l.Header.Labels
	r.Failed = lab["failed"] == "true"
	r.FailureSig = lab["failure_sig"]
	r.SchedComplete = lab["sched_done"] == "true"
	if lab["streams"] != "" {
		r.Streams = strings.Split(lab["streams"], "\x1f")
	}
	fmt.Sscanf(lab["log_bytes"], "%d", &r.LogBytes)
	var mil int64
	fmt.Sscanf(lab["overhead_mlli"], "%d", &mil)
	r.Overhead = float64(mil) / 1000
	fmt.Sscanf(lab["base_cycles"], "%d", &r.BaseCycles)
	fmt.Sscanf(lab["total_cycles"], "%d", &r.TotalCycles)
	fmt.Sscanf(lab["event_count"], "%d", &r.EventCount)
	fmt.Sscanf(lab["ckpt_bytes"], "%d", &r.CheckpointBytes)

	nSched, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: schedule count: %v", ErrBadRecording, err)
	}
	const maxSched = 1 << 30
	if nSched > maxSched {
		return nil, fmt.Errorf("%w: implausible schedule length %d", ErrBadRecording, nSched)
	}
	r.Sched = make([]trace.ThreadID, 0, nSched)
	prev := int64(0)
	for i := uint64(0); i < nSched; i++ {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: schedule entry %d: %v", ErrBadRecording, i, err)
		}
		prev += d
		r.Sched = append(r.Sched, trace.ThreadID(prev))
	}
	if ver >= recVersion {
		snaps, err := checkpoint.DecodeSnapshots(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
		}
		// The codec persists only the live-state portion of each snapshot;
		// the per-stream histories are projections of the event prefix and
		// are rebuilt from it here, through the recording's own restore
		// index, which later stores reuse. Only checkpointed files are
		// indexed, and their Full must be a complete event stream:
		// relaxed-model recordings carry no checkpoints, and their Full is
		// not one.
		if len(snaps) > 0 {
			idx := r.RestoreIndex()
			if err := idx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
			}
			for _, s := range snaps {
				if err := idx.Rehydrate(s); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
				}
			}
		}
		r.Checkpoints = snaps
	}
	return r, nil
}

// PolicyFactory builds a policy bound to a machine after the scenario's
// program has been constructed on it (so the policy can resolve stream and
// site identities), together with any companion observers the policy needs
// attached (online detectors feeding triggers). Stateless policies ignore
// the machine and return no observers.
type PolicyFactory func(m *vm.Machine) (Policy, []vm.Observer)

// FactoryFor wraps a stock policy in a constant factory.
func FactoryFor(p Policy) PolicyFactory {
	return func(*vm.Machine) (Policy, []vm.Observer) { return p, nil }
}

// Record runs the scenario once under the given model's stock policy and
// captures the recording. It is the one-call entry point for the
// non-RCSE models; RCSE recording is orchestrated by the core package
// because it needs a plane classification and triggers.
func Record(s *scenario.Scenario, model Model, seed int64, params scenario.Params, extra ...vm.Observer) (*Recording, *scenario.RunView, error) {
	policy := PolicyFor(model)
	if policy == nil {
		return nil, nil, fmt.Errorf("record: model %s needs an explicit policy", model)
	}
	return RecordWithPolicy(s, model, FactoryFor(policy), seed, params, extra...)
}

// RecordWithPolicy runs the scenario once with an explicit policy factory
// (used by RCSE) and captures the recording. Extra observers (triggers,
// monitors) are attached after the recorder.
func RecordWithPolicy(s *scenario.Scenario, model Model, factory PolicyFactory, seed int64, params scenario.Params, extra ...vm.Observer) (*Recording, *scenario.RunView, error) {
	p := s.DefaultParams.Clone(params)
	inputs := s.Inputs(seed, p)
	m := vm.New(vm.Config{
		Seed:         seed,
		Inputs:       inputs,
		CollectTrace: true,
	})
	main := s.Build(m, p)
	policy, companions := factory(m)
	rec := NewRecorder(m, policy)
	m.Attach(rec)
	for _, o := range companions {
		m.Attach(o)
	}
	for _, o := range extra {
		m.Attach(o)
	}
	res := m.Run(main)
	if res.Trace != nil {
		res.Trace.Header.Scenario = s.Name
		res.Trace.Header.Model = policy.Name()
		res.Trace.Header.Seed = seed
		res.Trace.Header.Params = map[string]int64(p)
	}
	view := &scenario.RunView{Machine: m, Result: res, Params: p, Seed: seed, Trace: res.Trace}
	rcd := Capture(s, view, rec, model, seed, p)
	return rcd, view, nil
}
