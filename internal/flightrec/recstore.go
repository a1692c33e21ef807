package flightrec

import (
	"sync"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// RecordingStore adapts an in-memory *record.Recording to the Store
// interface, so the store-backed replay entry points subsume the
// monolithic ones: a recording is simply a store that retains everything.
// The restore index over the recording's events is built lazily and
// exactly once, then shared read-only — segmented replay workers all
// slice the same arrays.
type RecordingStore struct {
	rec    *record.Recording
	bounds []uint64

	indexOnce sync.Once
	index     *checkpoint.Index
}

// NewRecordingStore wraps rec. The recording is shared, not copied, and
// must not be mutated while the store is in use.
func NewRecordingStore(rec *record.Recording) *RecordingStore {
	return &RecordingStore{rec: rec, bounds: rec.SegmentBounds()}
}

// Recording returns the wrapped recording.
func (rs *RecordingStore) Recording() *record.Recording { return rs.rec }

// Meta implements Store.
func (rs *RecordingStore) Meta() Meta {
	rec := rs.rec
	var interval uint64
	if len(rec.Checkpoints) > 0 {
		interval = rec.Checkpoints[0].Seq
	}
	return Meta{
		Scenario:      rec.Scenario,
		Model:         rec.Model,
		Seed:          rec.Seed,
		Params:        rec.Params,
		Streams:       rec.Streams,
		SchedComplete: rec.SchedComplete,
		Failed:        rec.Failed,
		FailureSig:    rec.FailureSig,
		// The retained horizon, not rec.EventCount: replay bounds index
		// into Full, and relaxed models record fewer events than they
		// observe.
		EventCount: uint64(len(rec.Full)),
		Interval:   interval,
	}
}

// Segments implements Store: one segment per checkpoint-delimited bound.
func (rs *RecordingStore) Segments() []SegmentInfo {
	segs := make([]SegmentInfo, len(rs.bounds))
	for i, from := range rs.bounds {
		to := uint64(len(rs.rec.Full))
		if i+1 < len(rs.bounds) {
			to = rs.bounds[i+1]
		}
		segs[i] = SegmentInfo{Index: i, From: from, To: to}
	}
	return segs
}

// Events implements Store; the returned slice aliases the recording.
func (rs *RecordingStore) Events(i int) ([]trace.Event, error) {
	from := rs.bounds[i]
	to := uint64(len(rs.rec.Full))
	if i+1 < len(rs.bounds) {
		to = rs.bounds[i+1]
	}
	return rs.rec.Full[from:to], nil
}

// BestSnapshot implements Store over the recording's checkpoints. Note
// that a checkpoint landing exactly at the end of the event stream is a
// valid snapshot even though it delimits no segment.
func (rs *RecordingStore) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	return checkpoint.Best(rs.rec.Checkpoints, target), nil
}

// SnapshotSeqs implements Store.
func (rs *RecordingStore) SnapshotSeqs() []uint64 {
	seqs := make([]uint64, len(rs.rec.Checkpoints))
	for i, cp := range rs.rec.Checkpoints {
		seqs[i] = cp.Seq
	}
	return seqs
}

// Feeds implements Store from the restore index, for any snapshot seq.
func (rs *RecordingStore) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	return rs.restoreIndex().Feeds(snap)
}

// Sched implements Store; the returned slice aliases the recording.
func (rs *RecordingStore) Sched(from uint64) ([]trace.ThreadID, error) {
	if from >= uint64(len(rs.rec.Sched)) {
		return nil, nil
	}
	return rs.rec.Sched[from:], nil
}

// Inputs implements Store: the recorded per-stream input sequences, over
// a zero base (replay beyond the recorded horizon reads zeros, exactly as
// the pre-store seek did).
func (rs *RecordingStore) Inputs() (vm.InputSource, error) {
	idx := rs.restoreIndex()
	if err := idx.Err(); err != nil {
		return nil, err
	}
	return &vm.MapInputs{Values: idx.Inputs(), Base: vm.ZeroInputs}, nil
}

// restoreIndex builds the recording's restore index on first use.
func (rs *RecordingStore) restoreIndex() *checkpoint.Index {
	rs.indexOnce.Do(func() {
		rs.index = checkpoint.NewIndex(rs.rec.Streams, rs.rec.Full)
	})
	return rs.index
}
