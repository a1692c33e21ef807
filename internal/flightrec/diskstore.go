package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"debugdet/internal/checkpoint"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// DiskStore is a spill directory opened for replay. The manifest is read
// eagerly; segment files lazily (and cached); the feed log on first
// demand, in one pass that adds every entry to the run's restore index
// (checkpoint.Index) — the source of the feeds, schedule, recorded inputs
// and boundary-snapshot stream histories that vm.Restore and the replay
// configuration need. Opening a store therefore costs O(run) memory at
// debug time — the bounded resource is the recorder's memory at record
// time, not the debugger's.
//
// A DiskStore is safe for concurrent readers.
type DiskStore struct {
	dir string
	man *manifest

	mu   sync.Mutex
	segs map[int]*Segment // by position in man.Segments

	indexOnce sync.Once
	index     *checkpoint.Index
	indexErr  error
}

// Open reads the manifest of a spill directory and returns the store.
func Open(dir string) (*DiskStore, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: open store: %w", err)
	}
	defer f.Close()
	man, err := decodeManifest(f)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", manifestName, err)
	}
	for i := 1; i < len(man.Segments); i++ {
		if man.Segments[i].From != man.Segments[i-1].To {
			return nil, fmt.Errorf("%w: segments not contiguous at %d ([..., %d) then [%d, ...))",
				ErrCorrupt, i, man.Segments[i-1].To, man.Segments[i].From)
		}
	}
	if n := len(man.Segments); man.Finalized && n > 0 && man.Segments[n-1].To != man.Meta.EventCount {
		return nil, fmt.Errorf("%w: last segment ends at %d, run has %d events",
			ErrCorrupt, man.Segments[n-1].To, man.Meta.EventCount)
	}
	return &DiskStore{dir: dir, man: man, segs: make(map[int]*Segment)}, nil
}

// Dir returns the spill directory path.
func (ds *DiskStore) Dir() string { return ds.dir }

// Finalized reports whether the run finished and stamped its terminal
// condition (an unfinalized manifest is a crash artifact: readable, but
// Failed/FailureSig are not authoritative).
func (ds *DiskStore) Finalized() bool { return ds.man.Finalized }

// FeedCount returns the number of feed-log entries the manifest declares.
func (ds *DiskStore) FeedCount() uint64 { return ds.man.FeedCount }

// FeedBytes returns the feed log's size per the manifest.
func (ds *DiskStore) FeedBytes() int64 { return ds.man.FeedBytes }

// Meta implements Store.
func (ds *DiskStore) Meta() Meta { return ds.man.Meta }

// Segments implements Store.
func (ds *DiskStore) Segments() []SegmentInfo {
	return append([]SegmentInfo(nil), ds.man.Segments...)
}

// Events implements Store.
func (ds *DiskStore) Events(i int) ([]trace.Event, error) {
	seg, err := ds.segment(i)
	if err != nil {
		return nil, err
	}
	return seg.Events, nil
}

// segment loads (or returns the cached) segment at position i, with its
// boundary snapshot rehydrated and restore-ready.
func (ds *DiskStore) segment(i int) (*Segment, error) {
	if i < 0 || i >= len(ds.man.Segments) {
		return nil, fmt.Errorf("flightrec: segment %d of %d", i, len(ds.man.Segments))
	}
	ds.mu.Lock()
	if seg, ok := ds.segs[i]; ok {
		ds.mu.Unlock()
		return seg, nil
	}
	ds.mu.Unlock()
	si := ds.man.Segments[i]
	f, err := os.Open(filepath.Join(ds.dir, si.File))
	if err != nil {
		return nil, fmt.Errorf("flightrec: open segment: %w", err)
	}
	seg, err := DecodeSegment(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", si.File, err)
	}
	if seg.From != si.From || seg.To != si.To || seg.Index != si.Index {
		return nil, fmt.Errorf("%w: %s holds segment %d [%d, %d), manifest says %d [%d, %d)",
			ErrCorrupt, si.File, seg.Index, seg.From, seg.To, si.Index, si.From, si.To)
	}
	seg.Bytes, seg.File = si.Bytes, si.File
	if seg.Snap != nil {
		idx, err := ds.restoreIndex()
		if err != nil {
			return nil, err
		}
		if err := idx.Rehydrate(seg.Snap); err != nil {
			return nil, fmt.Errorf("%w: snapshot at %d: %v", ErrCorrupt, seg.Snap.Seq, err)
		}
	}
	ds.mu.Lock()
	if cached, ok := ds.segs[i]; ok {
		seg = cached // another reader won the race; share its copy
	} else {
		ds.segs[i] = seg
	}
	ds.mu.Unlock()
	return seg, nil
}

// BestSnapshot implements Store: the latest retained boundary snapshot
// with Seq ≤ target.
func (ds *DiskStore) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	best := -1
	for i, si := range ds.man.Segments {
		if si.From > 0 && si.From <= target {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	seg, err := ds.segment(best)
	if err != nil {
		return nil, err
	}
	if seg.Snap == nil {
		return nil, fmt.Errorf("%w: segment [%d, %d) has no boundary snapshot", ErrCorrupt, seg.From, seg.To)
	}
	return seg.Snap, nil
}

// SnapshotSeqs implements Store.
func (ds *DiskStore) SnapshotSeqs() []uint64 {
	var seqs []uint64
	for _, si := range ds.man.Segments {
		if si.From > 0 {
			seqs = append(seqs, si.From)
		}
	}
	return seqs
}

// Feeds implements Store from the restore index, for any snapshot seq.
func (ds *DiskStore) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	idx, err := ds.restoreIndex()
	if err != nil {
		return nil, err
	}
	feeds, err := idx.Feeds(snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return feeds, nil
}

// Sched implements Store.
func (ds *DiskStore) Sched(from uint64) ([]trace.ThreadID, error) {
	idx, err := ds.restoreIndex()
	if err != nil {
		return nil, err
	}
	return idx.Sched(from), nil
}

// Inputs implements Store.
func (ds *DiskStore) Inputs() (vm.InputSource, error) {
	idx, err := ds.restoreIndex()
	if err != nil {
		return nil, err
	}
	return &vm.MapInputs{Values: idx.Inputs(), Base: vm.ZeroInputs}, nil
}

// restoreIndex scans the feed log once and caches the result.
func (ds *DiskStore) restoreIndex() (*checkpoint.Index, error) {
	ds.indexOnce.Do(func() {
		ds.index, ds.indexErr = ds.scanFeeds()
	})
	return ds.index, ds.indexErr
}

// scanFeeds is the single feed-log pass: every entry, decoded into its
// event, goes into the run's restore index.
func (ds *DiskStore) scanFeeds() (*checkpoint.Index, error) {
	f, err := os.Open(filepath.Join(ds.dir, feedLogName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: feed log: %w", err)
	}
	defer f.Close()
	idx := checkpoint.NewIndex(ds.man.Meta.Streams, nil)
	count, err := readFeedLog(f, func(e *trace.Event) error {
		idx.Add(e)
		return idx.Err()
	})
	if err != nil {
		return nil, corrupt(err)
	}
	if count != ds.man.FeedCount {
		return nil, fmt.Errorf("%w: feed log has %d entries, manifest declares %d", ErrCorrupt, count, ds.man.FeedCount)
	}
	return idx, nil
}
