package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"debugdet/internal/wire"
)

// Binary log format
//
//	magic   "DDTL" (4 bytes)
//	version u8
//	header  scenario, model: string; seed: zigzag varint;
//	        params: uvarint count, then (string, zigzag varint) pairs
//	        labels: uvarint count, then (string, string) pairs
//	sites   uvarint count, then names (NoSite's empty name included)
//	events  uvarint count, then per event:
//	        dSeq, dTime (uvarint deltas), tid (zigzag), kind u8,
//	        site uvarint, obj uvarint, taint u8, value
//	value   kind u8, then payload (zigzag varint / uvarint-prefixed bytes)
//
// Sequence and time fields are delta-encoded: logs are monotone in both, so
// deltas are tiny and the format approaches one byte per field.

const (
	logMagic   = "DDTL"
	logVersion = 1
)

// Encoding errors.
var (
	ErrBadMagic   = errors.New("trace: bad magic, not a debugdet log")
	ErrBadVersion = errors.New("trace: unsupported log version")
	ErrCorrupt    = errors.New("trace: corrupt log")
)

// maxString bounds a decoded string's length in bytes.
const maxString = 16 << 20

// wireFmt reads the shared wire primitives as this codec's: failures wrap
// ErrCorrupt, and strings are bounded by maxString.
var wireFmt = wire.Format{Err: ErrCorrupt, MaxString: maxString, StringWhat: "string size"}

// Encode writes the log in the binary format and returns the number of
// bytes written.
func Encode(w io.Writer, l *Log) (int64, error) {
	cw := &wire.CountingWriter{W: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(logMagic); err != nil {
		return cw.N, err
	}
	if err := bw.WriteByte(logVersion); err != nil {
		return cw.N, err
	}
	wire.WriteString(bw, l.Header.Scenario)
	wire.WriteString(bw, l.Header.Model)
	wire.WriteVarint(bw, l.Header.Seed)

	// Maps are written in sorted key order so encoding is deterministic.
	pkeys := make([]string, 0, len(l.Header.Params))
	for k := range l.Header.Params {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	wire.WriteUvarint(bw, uint64(len(pkeys)))
	for _, k := range pkeys {
		wire.WriteString(bw, k)
		wire.WriteVarint(bw, l.Header.Params[k])
	}
	lkeys := make([]string, 0, len(l.Header.Labels))
	for k := range l.Header.Labels {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	wire.WriteUvarint(bw, uint64(len(lkeys)))
	for _, k := range lkeys {
		wire.WriteString(bw, k)
		wire.WriteString(bw, l.Header.Labels[k])
	}

	// Iterate the table by index rather than copying it out: Encode
	// runs once per recorded log, including inside EncodedSize on the
	// recording overhead path.
	nSites := l.Sites.Len()
	wire.WriteUvarint(bw, uint64(nSites))
	for i := 0; i < nSites; i++ {
		wire.WriteString(bw, l.Sites.Name(SiteID(i)))
	}

	wire.WriteUvarint(bw, uint64(len(l.Events)))
	WriteEvents(bw, l.Events)
	if err := bw.Flush(); err != nil {
		return cw.N, err
	}
	return cw.N, nil
}

// Decode reads a log in the binary format.
func Decode(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic) != logMagic {
		return nil, ErrBadMagic
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, wireFmt.Corrupt(err)
	}
	if ver != logVersion {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadVersion, ver, logVersion)
	}
	l := &Log{Sites: NewSiteTable()}
	if l.Header.Scenario, err = wireFmt.ReadString(br); err != nil {
		return nil, err
	}
	if l.Header.Model, err = wireFmt.ReadString(br); err != nil {
		return nil, err
	}
	if l.Header.Seed, err = wireFmt.ReadVarint(br); err != nil {
		return nil, err
	}
	np, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if np > 0 {
		l.Header.Params = make(map[string]int64, np)
		for i := uint64(0); i < np; i++ {
			k, err := wireFmt.ReadString(br)
			if err != nil {
				return nil, err
			}
			v, err := wireFmt.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			l.Header.Params[k] = v
		}
	}
	nl, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nl > 0 {
		l.Header.Labels = make(map[string]string, nl)
		for i := uint64(0); i < nl; i++ {
			k, err := wireFmt.ReadString(br)
			if err != nil {
				return nil, err
			}
			v, err := wireFmt.ReadString(br)
			if err != nil {
				return nil, err
			}
			l.Header.Labels[k] = v
		}
	}

	ns, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ns == 0 {
		return nil, fmt.Errorf("%w: empty site table", ErrCorrupt)
	}
	for i := uint64(0); i < ns; i++ {
		name, err := wireFmt.ReadString(br)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if name != "" {
				return nil, fmt.Errorf("%w: site 0 must be unnamed", ErrCorrupt)
			}
			continue
		}
		l.Sites.Register(name)
	}

	ne, err := wireFmt.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxEvents = 1 << 30
	if ne > maxEvents {
		return nil, fmt.Errorf("%w: implausible event count %d", ErrCorrupt, ne)
	}
	if l.Events, err = ReadEvents(br, ne, &wireFmt); err != nil {
		return nil, err
	}
	return l, nil
}

// WriteEvents writes the bodies of events in the layout the log and the
// flight recorder's segment files share: per event, the seq and time
// deltas from the previous event (from zero for the first), tid zigzag,
// kind u8, site and obj uvarints, taint u8 and the value. The event count
// and its bound are the caller's.
func WriteEvents(w *bufio.Writer, events []Event) {
	var prevSeq, prevTime uint64
	for i := range events {
		e := &events[i]
		wire.WriteUvarint(w, e.Seq-prevSeq)
		wire.WriteUvarint(w, e.Time-prevTime)
		prevSeq, prevTime = e.Seq, e.Time
		wire.WriteVarint(w, int64(e.TID))
		w.WriteByte(byte(e.Kind))
		wire.WriteUvarint(w, uint64(e.Site))
		wire.WriteUvarint(w, uint64(e.Obj))
		w.WriteByte(byte(e.Taint))
		writeValue(w, e.Val)
	}
}

// ReadEvents reads n event bodies written by WriteEvents. Every failure
// wraps the sentinel of the caller's format f.
func ReadEvents(r *bufio.Reader, n uint64, f *wire.Format) ([]Event, error) {
	events := make([]Event, 0, n)
	var prevSeq, prevTime uint64
	for i := uint64(0); i < n; i++ {
		var e Event
		dSeq, err := f.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		dTime, err := f.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		prevSeq += dSeq
		prevTime += dTime
		e.Seq, e.Time = prevSeq, prevTime
		tid, err := f.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		e.TID = ThreadID(tid)
		kb, err := r.ReadByte()
		if err != nil {
			return nil, f.Corrupt(err)
		}
		if !EventKind(kb).Valid() {
			return nil, f.Corrupt(fmt.Errorf("bad event kind %d", kb))
		}
		e.Kind = EventKind(kb)
		site, err := f.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		e.Site = SiteID(site)
		obj, err := f.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		e.Obj = ObjID(obj)
		tb, err := r.ReadByte()
		if err != nil {
			return nil, f.Corrupt(err)
		}
		e.Taint = Taint(tb)
		if e.Val, err = readValue(r); err != nil {
			return nil, f.Corrupt(err)
		}
		events = append(events, e)
	}
	return events, nil
}

// EncodedSize returns the size in bytes Encode would produce, without
// allocating the output.
func EncodedSize(l *Log) int64 {
	n, _ := Encode(io.Discard, l)
	return n
}

// WriteValue writes one value in the binary format. It is shared with the
// checkpoint codec, which embeds values in snapshot sections.
func WriteValue(w *bufio.Writer, v Value) { writeValue(w, v) }

// ReadValue reads one value written by WriteValue.
func ReadValue(r *bufio.Reader) (Value, error) { return readValue(r) }

func writeValue(w *bufio.Writer, v Value) {
	w.WriteByte(byte(v.Kind))
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		wire.WriteVarint(w, v.Int)
	case VString:
		wire.WriteString(w, v.Str)
	case VBytes:
		wire.WriteUvarint(w, uint64(len(v.Bytes)))
		w.Write(v.Bytes)
	}
}

func readValue(r *bufio.Reader) (Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return Nil, wireFmt.Corrupt(err)
	}
	v := Value{Kind: ValueKind(kb)}
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		if v.Int, err = wireFmt.ReadVarint(r); err != nil {
			return Nil, err
		}
	case VString:
		if v.Str, err = wireFmt.ReadString(r); err != nil {
			return Nil, err
		}
	case VBytes:
		n, err := wireFmt.ReadUvarint(r)
		if err != nil {
			return Nil, err
		}
		const maxBlob = 64 << 20
		if n > maxBlob {
			return Nil, fmt.Errorf("%w: implausible blob size %d", ErrCorrupt, n)
		}
		v.Bytes = make([]byte, n)
		if _, err := io.ReadFull(r, v.Bytes); err != nil {
			return Nil, wireFmt.Corrupt(err)
		}
	default:
		return Nil, fmt.Errorf("%w: bad value kind %d", ErrCorrupt, kb)
	}
	return v, nil
}
