package checkpoint

import (
	"fmt"
	"math"
	"slices"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Index is the restore index of one run: a single pass over its complete
// event stream records what each event contributes to restoring a
// snapshot — the event's vm.FeedEntry in its thread, its thread ID in the
// schedule, and the values of input and output events in their stream —
// together with each entry's position. Any snapshot's restore inputs are
// then slices of the shared arrays, located by binary search. It is the
// only code that knows those per-kind rules: the .ddrc loader, both
// segment stores and the forker all read their restore inputs from it.
//
// Every answer shares the index's arrays and must be treated as
// read-only. Add is not safe for concurrent use; once built, an Index is
// safe for concurrent readers.
type Index struct {
	streams []string
	n       uint64 // events indexed
	err     error  // why event n was refused; nil while the stream is well formed
	// machine is the position of the first event no thread emitted (a
	// machine event, such as a deadlock report); math.MaxUint64 if none.
	machine uint64
	sched   []trace.ThreadID
	feeds   [][]vm.FeedEntry // per thread ID
	feedAt  [][]uint64       // per thread ID: the position of each feed entry
	hist    []history        // per stream object ID
}

// history is one stream's recorded traffic and the position of each value.
type history struct {
	in, out     []trace.Value
	inAt, outAt []uint64
}

// NewIndex returns the index of events, a run prefix whose stream object
// IDs name streams (index = ObjID, as in Recording.Streams). Add extends
// it with the events that follow.
func NewIndex(streams []string, events []trace.Event) *Index {
	x := &Index{streams: streams, machine: math.MaxUint64, hist: make([]history, len(streams))}
	x.reserve(events)
	for i := range events {
		x.Add(&events[i])
	}
	return x
}

// reserve sizes the index's arrays for events, so building it allocates
// each array once instead of growing it by doubling. Only thread IDs Add
// would accept are counted, so a corrupt one cannot size anything.
func (x *Index) reserve(events []trace.Event) {
	if len(events) == 0 {
		return
	}
	var perThread []int
	in, out := make([]int, len(x.hist)), make([]int, len(x.hist))
	for i := range events {
		e := &events[i]
		if e.TID >= 0 && int(e.TID) <= i {
			for int(e.TID) >= len(perThread) {
				perThread = append(perThread, 0)
			}
			perThread[e.TID]++
		}
		if isIO(e.Kind) && e.Obj < trace.ObjID(len(x.hist)) {
			if e.Kind == trace.EvInput {
				in[e.Obj]++
			} else {
				out[e.Obj]++
			}
		}
	}
	x.sched = make([]trace.ThreadID, 0, len(events))
	x.feeds = make([][]vm.FeedEntry, len(perThread))
	x.feedAt = make([][]uint64, len(perThread))
	for tid, n := range perThread {
		if n > 0 {
			x.feeds[tid], x.feedAt[tid] = make([]vm.FeedEntry, 0, n), make([]uint64, 0, n)
		}
	}
	for obj := range x.hist {
		h := &x.hist[obj]
		if n := in[obj]; n > 0 {
			h.in, h.inAt = make([]trace.Value, 0, n), make([]uint64, 0, n)
		}
		if n := out[obj]; n > 0 {
			h.out, h.outAt = make([]trace.Value, 0, n), make([]uint64, 0, n)
		}
	}
}

// isIO reports whether events of kind k are stream traffic.
func isIO(k trace.EventKind) bool { return k == trace.EvInput || k == trace.EvOutput }

// Add appends the run's next event, whose Seq must be its position. The
// first event that cannot belong to a complete event stream — a Seq that
// is not its position, a thread ID above its position (a thread cannot
// run before the spawns that create it, which also bounds the index's
// per-thread arrays by the events added), or a stream outside the stream
// table — ends the index: it and every later event are dropped, Err
// reports why, and restores needing them fail with that error. An event with a negative
// thread ID is a machine event: it takes its place in the schedule, but
// no snapshot can be restored past it.
func (x *Index) Add(e *trace.Event) {
	if x.err != nil {
		return
	}
	io := isIO(e.Kind)
	switch {
	case e.Seq != x.n:
		x.err = fmt.Errorf("checkpoint: event %d has seq %d; prefix is not a complete event stream", x.n, e.Seq)
	case e.TID >= 0 && uint64(e.TID) > x.n:
		x.err = fmt.Errorf("checkpoint: event %d belongs to thread %d, which cannot exist yet", x.n, e.TID)
	case io && e.Obj >= trace.ObjID(len(x.streams)):
		x.err = fmt.Errorf("checkpoint: event %d touches stream %d, run has %d streams", x.n, e.Obj, len(x.streams))
	}
	if x.err != nil {
		return
	}
	x.sched = append(x.sched, e.TID)
	if io {
		h := &x.hist[e.Obj]
		if e.Kind == trace.EvInput {
			h.in, h.inAt = append(h.in, e.Val), append(h.inAt, x.n)
		} else {
			h.out, h.outAt = append(h.out, e.Val), append(h.outAt, x.n)
		}
	}
	if e.TID < 0 {
		x.machine = min(x.machine, x.n)
	} else {
		for int(e.TID) >= len(x.feeds) {
			x.feeds = append(x.feeds, nil)
			x.feedAt = append(x.feedAt, nil)
		}
		x.feeds[e.TID] = append(x.feeds[e.TID], feedOf(e))
		x.feedAt[e.TID] = append(x.feedAt[e.TID], x.n)
	}
	x.n++
}

// feedOf is the one rule for what an event contributes to its thread's
// feed: the operation's kind, result value, ok bit and taint.
func feedOf(e *trace.Event) vm.FeedEntry {
	fe := vm.FeedEntry{Kind: e.Kind, OK: true}
	//lint:exhaustive-default kinds without replay payloads need no feed fields; the zero FeedEntry is correct for them
	switch e.Kind {
	case trace.EvLoad, trace.EvRecv, trace.EvInput, trace.EvDiskRead:
		// The event's taint is the provenance of the value read — the
		// operation's contribution to the thread's taint register.
		fe.Val = e.Val
		fe.Taint = e.Taint
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		// Disk events carry the operation's result as their value — the
		// same invariant memory events obey.
		fe.Val = e.Val
	case trace.EvSpawn:
		// A spawn's result is the child thread ID, carried in Obj.
		fe.Val = trace.Int(int64(e.Obj))
	case trace.EvYield:
		// Yields cover failed try-sends/try-receives and expired
		// timeouts; their second result is false. Plain yields ignore
		// the outcome entirely.
		fe.OK = false
	}
	return fe
}

// Err reports why the index stopped short of the events added to it, or
// nil when every event was indexed.
func (x *Index) Err() error { return x.err }

// covers checks that the index holds the first seq events.
func (x *Index) covers(seq uint64) error {
	switch {
	case seq <= x.n:
		return nil
	case x.err != nil:
		return x.err
	default:
		return fmt.Errorf("checkpoint: prefix needs %d events, run has %d", seq, x.n)
	}
}

// upTo counts the ascending positions at that come before seq.
func upTo(at []uint64, seq uint64) int {
	n, _ := slices.BinarySearch(at, seq)
	return n
}

// before returns the values positioned before seq, capped so an append
// cannot write into the shared array; nil when there are none.
func before[T any](vals []T, at []uint64, seq uint64) []T {
	n := upTo(at, seq)
	if n == 0 {
		return nil
	}
	return vals[:n:n]
}

// Feeds returns the per-thread operation outcomes of the first snap.Seq
// events — the input vm.Restore needs to rebuild each thread's position by
// feed replay. It serves any snapshot of the run, not only those captured
// with it.
func (x *Index) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	if err := x.covers(snap.Seq); err != nil {
		return nil, err
	}
	if x.machine < snap.Seq {
		return nil, fmt.Errorf("checkpoint: event %d belongs to thread %d", x.machine, x.sched[x.machine])
	}
	threads := len(snap.Threads)
	for tid := threads; tid < len(x.feedAt); tid++ {
		if at := x.feedAt[tid]; len(at) > 0 && at[0] < snap.Seq {
			return nil, fmt.Errorf("checkpoint: event %d belongs to thread %d, snapshot has %d threads", at[0], tid, threads)
		}
	}
	feeds := make([][]vm.FeedEntry, threads)
	for tid := 0; tid < threads && tid < len(x.feeds); tid++ {
		feeds[tid] = before(x.feeds[tid], x.feedAt[tid], snap.Seq)
	}
	return feeds, nil
}

// Rehydrate sets the per-stream histories of a decoded snapshot: the
// consumed input and emitted output sequences are projections of the
// event prefix, so the codec does not persist them (checkpoint volume
// stays proportional to live state, not trace length). The histories
// share the index's arrays — vm.Restore copies them — and are validated
// against the persisted input cursors.
func (x *Index) Rehydrate(snap *vm.Snapshot) error {
	if err := x.covers(snap.Seq); err != nil {
		return err
	}
	for obj := len(snap.Streams); obj < len(x.hist); obj++ {
		h := &x.hist[obj]
		if upTo(h.inAt, snap.Seq)+upTo(h.outAt, snap.Seq) > 0 {
			return fmt.Errorf("checkpoint: stream %d is used before %d, snapshot has %d streams", obj, snap.Seq, len(snap.Streams))
		}
	}
	for i := range snap.Streams {
		st := &snap.Streams[i]
		st.Inputs, st.Outputs = nil, nil
		if i < len(x.hist) {
			h := &x.hist[i]
			st.Inputs = before(h.in, h.inAt, snap.Seq)
			st.Outputs = before(h.out, h.outAt, snap.Seq)
		}
		if len(st.Inputs) != st.InIndex {
			return fmt.Errorf("checkpoint: stream %q rebuilt %d inputs, cursor says %d", st.Name, len(st.Inputs), st.InIndex)
		}
	}
	return nil
}

// Sched returns the schedule from event `from` on (nil when from is at or
// past the end of the index).
func (x *Index) Sched(from uint64) []trace.ThreadID {
	if from >= uint64(len(x.sched)) {
		return nil
	}
	return x.sched[from:]
}

// Inputs returns the recorded input values per stream name, in recorded
// order; streams the run never read from are absent.
func (x *Index) Inputs() map[string][]trace.Value {
	out := make(map[string][]trace.Value)
	for obj := range x.hist {
		if in := x.hist[obj].in; len(in) > 0 {
			out[x.streams[obj]] = in[:len(in):len(in)]
		}
	}
	return out
}
