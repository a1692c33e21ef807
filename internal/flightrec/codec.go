package flightrec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// On-disk formats of the flight recorder, following the house codec
// style: 4-byte magic + version byte, uvarint/zigzag-varint integers,
// delta-encoded sequences, values via the trace codec, counts bounded so
// corrupt input fails fast, and truncation reported as errors wrapping
// ErrCorrupt — never panics.
//
// Segment file (.ddseg):
//
//	magic    "DDSG" (4 bytes), version u8
//	index, from, to  uvarints
//	snapshot section (checkpoint codec, 0 or 1 snapshots): the boundary
//	         snapshot at `from`; absent for a run's first segment
//	events   uvarint count (== to-from), then per event: seq delta,
//	         time delta uvarints; tid zigzag; kind u8; site uvarint;
//	         obj uvarint; taint u8; value
//
// Manifest (manifest.ddmf):
//
//	magic    "DDMF" (4 bytes), version u8
//	scenario, model strings; seed zigzag
//	params   uvarint count, then (key string, value zigzag), sorted
//	streams  uvarint count, then names (index = stream ObjID)
//	interval uvarint; eventCount uvarint
//	flags    u8 (schedComplete|failed|finalized)
//	failureSig string
//	feedCount, feedBytes uvarints
//	segments uvarint count, then per segment: index, from, to, bytes
//	         uvarints and file string
//
// Feed log (feeds.ddfl):
//
//	magic    "DDFL" (4 bytes), version u8
//	entries until EOF, one per event of the whole run, in order:
//	         tid zigzag; kind u8; then by kind —
//	         Load/Recv/DiskRead: value, taint u8 · Input: obj uvarint,
//	         value, taint u8 · Store/DiskWrite/DiskFsync/DiskBarrier/
//	         DiskCrash: value · Output: obj uvarint, value ·
//	         Spawn: obj uvarint · anything else: no payload
const (
	segMagic      = "DDSG"
	segVersion    = 1
	manMagic      = "DDMF"
	manVersion    = 1
	feedMagic     = "DDFL"
	feedVersion   = 1
	flagSchedDone = 1
	flagFailed    = 2
	flagFinalized = 4
)

// ErrCorrupt reports a malformed flight-recorder file.
var ErrCorrupt = errors.New("flightrec: malformed flight-recorder file")

// implausibleCount bounds decoded counts, as in the other codecs.
const implausibleCount = 1 << 28

// wireFmt reads the shared wire primitives as this codec's: failures wrap
// ErrCorrupt, and strings are bounded by implausibleCount.
var wireFmt = wire.Format{Err: ErrCorrupt, MaxString: implausibleCount, StringWhat: "string byte count"}

// Segment is one checkpoint-delimited slice of the event stream: the
// boundary snapshot that opens it (nil for the run's first segment) and
// the fully recorded events of [From, To).
type Segment struct {
	SegmentInfo
	Snap   *vm.Snapshot
	Events []trace.Event
}

// EncodeSegment writes the segment in the .ddseg format and returns the
// bytes written.
func EncodeSegment(w io.Writer, seg *Segment) (int64, error) {
	cw := &wire.CountingWriter{W: w}
	bw := bufio.NewWriter(cw)
	bw.WriteString(segMagic)
	bw.WriteByte(segVersion)
	wire.WriteUvarint(bw, uint64(seg.Index))
	wire.WriteUvarint(bw, seg.From)
	wire.WriteUvarint(bw, seg.To)
	if err := bw.Flush(); err != nil {
		return cw.N, err
	}
	var snaps []*vm.Snapshot
	if seg.Snap != nil {
		snaps = []*vm.Snapshot{seg.Snap}
	}
	if _, err := checkpoint.EncodeSnapshots(cw, snaps); err != nil {
		return cw.N, err
	}
	wire.WriteUvarint(bw, uint64(len(seg.Events)))
	trace.WriteEvents(bw, seg.Events)
	if err := bw.Flush(); err != nil {
		return cw.N, err
	}
	return cw.N, nil
}

// DecodeSegment reads a .ddseg segment. The boundary snapshot comes back
// as persisted — stream histories empty — and must be rehydrated from the
// feed log before it can be restored.
func DecodeSegment(r io.Reader) (*Segment, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, segMagic, segVersion); err != nil {
		return nil, err
	}
	seg := &Segment{}
	idx, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if idx > implausibleCount {
		return nil, fmt.Errorf("%w: implausible segment index %d", ErrCorrupt, idx)
	}
	seg.Index = int(idx)
	if seg.From, err = wireFmt.ReadUvarint(br); err != nil {
		return nil, err
	}
	if seg.To, err = wireFmt.ReadUvarint(br); err != nil {
		return nil, err
	}
	if seg.To < seg.From || seg.To-seg.From > implausibleCount {
		return nil, fmt.Errorf("%w: bad segment range [%d, %d)", ErrCorrupt, seg.From, seg.To)
	}
	snaps, err := checkpoint.DecodeSnapshots(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(snaps) > 1 {
		return nil, fmt.Errorf("%w: segment carries %d snapshots", ErrCorrupt, len(snaps))
	}
	if len(snaps) == 1 {
		seg.Snap = snaps[0]
		if seg.Snap.Seq != seg.From {
			return nil, fmt.Errorf("%w: boundary snapshot at %d, segment starts at %d", ErrCorrupt, seg.Snap.Seq, seg.From)
		}
	}
	count, err := readBoundedCount(br, "event")
	if err != nil {
		return nil, err
	}
	if count != seg.To-seg.From {
		return nil, fmt.Errorf("%w: segment [%d, %d) holds %d events", ErrCorrupt, seg.From, seg.To, count)
	}
	if seg.Events, err = trace.ReadEvents(br, count, &wireFmt); err != nil {
		return nil, err
	}
	if count > 0 && seg.Events[0].Seq != seg.From {
		return nil, fmt.Errorf("%w: first event seq %d, segment starts at %d", ErrCorrupt, seg.Events[0].Seq, seg.From)
	}
	return seg, nil
}

// manifest is the decoded manifest.ddmf: the store's Meta plus the feed
// log accounting and the retained segment table.
type manifest struct {
	Meta      Meta
	Finalized bool
	FeedCount uint64
	FeedBytes int64
	Segments  []SegmentInfo
}

// encodeManifest writes the manifest format to w.
func encodeManifest(w io.Writer, m *manifest) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(manMagic)
	bw.WriteByte(manVersion)
	wire.WriteString(bw, m.Meta.Scenario)
	wire.WriteString(bw, m.Meta.Model.String())
	wire.WriteVarint(bw, m.Meta.Seed)
	keys := make([]string, 0, len(m.Meta.Params))
	for k := range m.Meta.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wire.WriteUvarint(bw, uint64(len(keys)))
	for _, k := range keys {
		wire.WriteString(bw, k)
		wire.WriteVarint(bw, m.Meta.Params[k])
	}
	wire.WriteUvarint(bw, uint64(len(m.Meta.Streams)))
	for _, name := range m.Meta.Streams {
		wire.WriteString(bw, name)
	}
	wire.WriteUvarint(bw, m.Meta.Interval)
	wire.WriteUvarint(bw, m.Meta.EventCount)
	var flags byte
	if m.Meta.SchedComplete {
		flags |= flagSchedDone
	}
	if m.Meta.Failed {
		flags |= flagFailed
	}
	if m.Finalized {
		flags |= flagFinalized
	}
	bw.WriteByte(flags)
	wire.WriteString(bw, m.Meta.FailureSig)
	wire.WriteUvarint(bw, m.FeedCount)
	wire.WriteUvarint(bw, uint64(m.FeedBytes))
	wire.WriteUvarint(bw, uint64(len(m.Segments)))
	for _, si := range m.Segments {
		wire.WriteUvarint(bw, uint64(si.Index))
		wire.WriteUvarint(bw, si.From)
		wire.WriteUvarint(bw, si.To)
		wire.WriteUvarint(bw, uint64(si.Bytes))
		wire.WriteString(bw, si.File)
	}
	return bw.Flush()
}

// decodeManifest reads a manifest written by encodeManifest.
func decodeManifest(r io.Reader) (*manifest, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, manMagic, manVersion); err != nil {
		return nil, err
	}
	m := &manifest{}
	var err error
	if m.Meta.Scenario, err = wireFmt.ReadString(br); err != nil {
		return nil, err
	}
	modelName, err := wireFmt.ReadString(br)
	if err != nil {
		return nil, err
	}
	// A manifest's model is part of the replay contract, not a label:
	// fail on names this build cannot interpret.
	model, err := record.ParseModel(modelName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m.Meta.Model = model
	if m.Meta.Seed, err = wireFmt.ReadVarint(br); err != nil {
		return nil, err
	}
	n, err := readBoundedCount(br, "param")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Meta.Params = make(scenario.Params, n)
	}
	for i := uint64(0); i < n; i++ {
		k, err := wireFmt.ReadString(br)
		if err != nil {
			return nil, err
		}
		v, err := wireFmt.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		m.Meta.Params[k] = v
	}
	if n, err = readBoundedCount(br, "stream"); err != nil {
		return nil, err
	}
	m.Meta.Streams = make([]string, n)
	for i := range m.Meta.Streams {
		if m.Meta.Streams[i], err = wireFmt.ReadString(br); err != nil {
			return nil, err
		}
	}
	if m.Meta.Interval, err = wireFmt.ReadUvarint(br); err != nil {
		return nil, err
	}
	if m.Meta.EventCount, err = wireFmt.ReadUvarint(br); err != nil {
		return nil, err
	}
	flags, err := readByte(br)
	if err != nil {
		return nil, err
	}
	m.Meta.SchedComplete = flags&flagSchedDone != 0
	m.Meta.Failed = flags&flagFailed != 0
	m.Finalized = flags&flagFinalized != 0
	if m.Meta.FailureSig, err = wireFmt.ReadString(br); err != nil {
		return nil, err
	}
	if m.FeedCount, err = wireFmt.ReadUvarint(br); err != nil {
		return nil, err
	}
	fb, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m.FeedBytes = int64(fb)
	if n, err = readBoundedCount(br, "segment"); err != nil {
		return nil, err
	}
	m.Segments = make([]SegmentInfo, n)
	for i := range m.Segments {
		si := &m.Segments[i]
		idx, err := wireFmt.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if idx > implausibleCount {
			return nil, fmt.Errorf("%w: implausible segment index %d", ErrCorrupt, idx)
		}
		si.Index = int(idx)
		if si.From, err = wireFmt.ReadUvarint(br); err != nil {
			return nil, err
		}
		if si.To, err = wireFmt.ReadUvarint(br); err != nil {
			return nil, err
		}
		b, err := wireFmt.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		si.Bytes = int64(b)
		if si.File, err = wireFmt.ReadString(br); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// writeFeedHeader writes the feed-log magic and version.
func writeFeedHeader(bw *bufio.Writer) {
	bw.WriteString(feedMagic)
	bw.WriteByte(feedVersion)
}

// writeFeedEntry appends one event's feed record.
func writeFeedEntry(bw *bufio.Writer, e *trace.Event) {
	wire.WriteVarint(bw, int64(e.TID))
	bw.WriteByte(byte(e.Kind))
	//lint:exhaustive-default payloadless kinds encode as the kind byte alone; readFeedLog mirrors this set
	switch e.Kind {
	case trace.EvLoad, trace.EvRecv, trace.EvDiskRead:
		trace.WriteValue(bw, e.Val)
		bw.WriteByte(byte(e.Taint))
	case trace.EvInput:
		wire.WriteUvarint(bw, uint64(e.Obj))
		trace.WriteValue(bw, e.Val)
		bw.WriteByte(byte(e.Taint))
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		trace.WriteValue(bw, e.Val)
	case trace.EvOutput:
		wire.WriteUvarint(bw, uint64(e.Obj))
		trace.WriteValue(bw, e.Val)
	case trace.EvSpawn:
		wire.WriteUvarint(bw, uint64(e.Obj))
	}
}

// readFeedLog decodes a feed log, invoking fn for every entry in event
// order with the event it records: Seq (the entry's position), TID, Kind
// and the kind's payload fields. It validates the magic and stops at
// clean EOF; a partial entry is corruption.
func readFeedLog(r io.Reader, fn func(e *trace.Event) error) (uint64, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, feedMagic, feedVersion); err != nil {
		return 0, err
	}
	var count uint64
	for {
		tid, err := binary.ReadVarint(br)
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("%w: feed entry %d: %v", ErrCorrupt, count, err)
		}
		e := trace.Event{Seq: count, TID: trace.ThreadID(tid)}
		kb, err := readByte(br)
		if err != nil {
			return count, err
		}
		if !trace.EventKind(kb).Valid() {
			return count, fmt.Errorf("%w: feed entry %d: bad kind %d", ErrCorrupt, count, kb)
		}
		e.Kind = trace.EventKind(kb)
		//lint:exhaustive-default mirrors writeFeedEntry: payloadless kinds have no record body to read
		switch e.Kind {
		case trace.EvLoad, trace.EvRecv, trace.EvDiskRead:
			if e.Val, err = readValue(br); err != nil {
				return count, err
			}
			tb, err := readByte(br)
			if err != nil {
				return count, err
			}
			e.Taint = trace.Taint(tb)
		case trace.EvInput:
			obj, err := wireFmt.ReadUvarint(br)
			if err != nil {
				return count, err
			}
			e.Obj = trace.ObjID(obj)
			if e.Val, err = readValue(br); err != nil {
				return count, err
			}
			tb, err := readByte(br)
			if err != nil {
				return count, err
			}
			e.Taint = trace.Taint(tb)
		case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
			trace.EvDiskBarrier, trace.EvDiskCrash:
			if e.Val, err = readValue(br); err != nil {
				return count, err
			}
		case trace.EvOutput:
			obj, err := wireFmt.ReadUvarint(br)
			if err != nil {
				return count, err
			}
			e.Obj = trace.ObjID(obj)
			if e.Val, err = readValue(br); err != nil {
				return count, err
			}
		case trace.EvSpawn:
			obj, err := wireFmt.ReadUvarint(br)
			if err != nil {
				return count, err
			}
			e.Obj = trace.ObjID(obj)
		}
		if err := fn(&e); err != nil {
			return count, err
		}
		count++
	}
}

// Shared low-level helpers, in the style of the checkpoint codec.

func expectMagic(br *bufio.Reader, magic string, version byte) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("%w: magic: %v", ErrCorrupt, err)
	}
	if string(got) != magic {
		return fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	}
	if ver != version {
		return fmt.Errorf("%w: unsupported %s version %d (want %d)", ErrCorrupt, magic, ver, version)
	}
	return nil
}

func readByte(br *bufio.Reader) (byte, error) {
	b, err := br.ReadByte()
	if err != nil {
		return 0, corrupt(err)
	}
	return b, nil
}

func readValue(br *bufio.Reader) (trace.Value, error) {
	v, err := trace.ReadValue(br)
	if err != nil {
		return trace.Value{}, corrupt(err)
	}
	return v, nil
}

func readBoundedCount(br *bufio.Reader, what string) (uint64, error) {
	n, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > implausibleCount {
		return 0, fmt.Errorf("%w: implausible %s count %d", ErrCorrupt, what, n)
	}
	return n, nil
}

func corrupt(err error) error { return wireFmt.Corrupt(err) }
