package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`   // 0 for a top-level span
	Workload string `json:"workload"` // workload whose pass made the call
	Pass     int    `json:"pass"`     // pass number within that workload
	Layer    string `json:"layer"`    // module the call enters (vm, record, ...)
	Call     string `json:"call"`     // the function called
	Tag      string `json:"tag"`      // model, scenario or run kind
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
	Events   uint64 `json:"events"` // VM events the call processed
	Bytes    int64  `json:"bytes"`  // bytes the call produced or read
	Items    int64  `json:"items"`  // other work units: snapshots, segments
	Alloc    uint64 `json:"alloc"`  // heap bytes allocated during the call
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is how untraced runs and passes go.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID int
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a span's children can name it as their
// parent before it ends.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span whose ID came from newID.
func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.StartNS = start.Sub(t.t0).Nanoseconds()
	s.EndNS = end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
}

// find returns the spans of one workload matching call and tag ("" matches
// any call or tag), in recording order.
func (t *tracer) find(workload, call, tag string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Workload == workload && (call == "" || s.Call == call) && (tag == "" || s.Tag == tag) {
			out = append(out, s)
		}
	}
	return out
}

// byPass groups spans by pass number, in ascending pass order.
func byPass(spans []span) [][]span {
	idx := map[int]int{}
	var out [][]span
	for _, s := range spans {
		i, ok := idx[s.Pass]
		if !ok {
			i = len(out)
			idx[s.Pass] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// total sums the durations, events and bytes of spans.
func total(spans []span) (d time.Duration, events uint64, bytes int64) {
	for _, s := range spans {
		d += s.dur()
		events += s.Events
		bytes += s.Bytes
	}
	return d, events, bytes
}

// durations returns each span's duration in milliseconds.
func durations(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		out = append(out, ms(s.dur()))
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
