package record

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

func TestModelNamesRoundTrip(t *testing.T) {
	for _, m := range AllModels() {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseModel(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseModel("nonsense"); err == nil {
		t.Fatal("ParseModel accepted nonsense")
	}
}

func TestStockPolicyLevels(t *testing.T) {
	cases := []struct {
		model Model
		kind  trace.EventKind
		want  Level
	}{
		{Perfect, trace.EvLoad, LevelFull},
		{Perfect, trace.EvLock, LevelFull},
		{Perfect, trace.EvYield, LevelFull},
		{Value, trace.EvLoad, LevelFull},
		{Value, trace.EvStore, LevelFull},
		{Value, trace.EvInput, LevelFull},
		{Value, trace.EvLock, LevelSkip},
		{Value, trace.EvYield, LevelSkip},
		{Value, trace.EvFail, LevelFull},
		{Output, trace.EvOutput, LevelFull},
		{Output, trace.EvInput, LevelSkip},
		{Output, trace.EvLoad, LevelSkip},
		{Output, trace.EvCrash, LevelFull},
		{Failure, trace.EvOutput, LevelSkip},
		{Failure, trace.EvFail, LevelSkip},
	}
	for _, c := range cases {
		p := PolicyFor(c.model)
		if p == nil {
			t.Fatalf("no stock policy for %v", c.model)
		}
		e := trace.Event{Kind: c.kind}
		if got := p.Level(&e); got != c.want {
			t.Errorf("%v policy level(%v) = %v, want %v", c.model, c.kind, got, c.want)
		}
	}
	if PolicyFor(DebugRCSE) != nil {
		t.Fatal("DebugRCSE must have no stock policy")
	}
}

func TestRecorderAccounting(t *testing.T) {
	m := vm.New(vm.Config{})
	rec := NewRecorder(m, PolicyFor(Perfect))
	e := trace.Event{Kind: trace.EvStore, Val: trace.Str("hello")}
	cost := rec.OnEvent(&e)
	if cost == 0 {
		t.Fatal("full recording charged no cost")
	}
	if rec.Bytes() == 0 || rec.Events() != 1 || rec.FullCount() != 1 {
		t.Fatalf("accounting: bytes=%d events=%d full=%d", rec.Bytes(), rec.Events(), rec.FullCount())
	}
	if !rec.schedComplete {
		t.Fatal("perfect recorder lost schedule completeness")
	}

	rec2 := NewRecorder(m, PolicyFor(Failure))
	if cost := rec2.OnEvent(&e); cost != 0 {
		t.Fatalf("skip-level recording charged %d", cost)
	}
	if rec2.schedComplete {
		t.Fatal("skipping recorder still claims a complete schedule")
	}
}

func TestSchedLevelCheaperThanFull(t *testing.T) {
	m := vm.New(vm.Config{})
	sched := NewRecorder(m, PolicyFunc{N: "s", F: func(*trace.Event) Level { return LevelSched }})
	full := NewRecorder(m, PolicyFunc{N: "f", F: func(*trace.Event) Level { return LevelFull }})
	e := trace.Event{Kind: trace.EvSend, Val: trace.Bytes_(make([]byte, 100))}
	cs := sched.OnEvent(&e)
	cf := full.OnEvent(&e)
	if cs >= cf {
		t.Fatalf("sched cost %d not below full cost %d", cs, cf)
	}
	if sched.Bytes() >= full.Bytes() {
		t.Fatalf("sched bytes %d not below full bytes %d", sched.Bytes(), full.Bytes())
	}
}

func TestRecordEndToEndOnSum(t *testing.T) {
	s := workload.Sum()
	rec, view, err := Record(s, Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Failed || rec.FailureSig != "sum:wrong-output" {
		t.Fatalf("recording failure identity: %v/%q", rec.Failed, rec.FailureSig)
	}
	if rec.EventCount != view.Result.Steps {
		t.Fatalf("event count %d != steps %d", rec.EventCount, view.Result.Steps)
	}
	if !rec.SchedComplete || len(rec.Sched) != int(rec.EventCount) {
		t.Fatalf("schedule: complete=%v len=%d events=%d", rec.SchedComplete, len(rec.Sched), rec.EventCount)
	}
	if rec.Overhead <= 1.0 {
		t.Fatalf("perfect recording overhead = %v, want > 1", rec.Overhead)
	}
	ins := rec.InputsByStream()
	if len(ins["in.a"]) != 1 || ins["in.a"][0].AsInt() != 2 {
		t.Fatalf("recorded inputs: %v", ins)
	}
	outs := rec.OutputsByStream()
	if len(outs["sum.out"]) != 1 || outs["sum.out"][0].AsInt() != 5 {
		t.Fatalf("recorded outputs: %v", outs)
	}
}

func TestOverheadOrderingAcrossModels(t *testing.T) {
	s := workload.Sum()
	get := func(m Model) float64 {
		rec, _, err := Record(s, m, s.DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Overhead
	}
	perfect, value, output, failure := get(Perfect), get(Value), get(Output), get(Failure)
	if !(perfect >= value && value > output && output >= failure && failure == 1.0) {
		t.Fatalf("overhead ordering violated: perfect=%v value=%v output=%v failure=%v",
			perfect, value, output, failure)
	}
}

func TestRecordingSaveLoadRoundTrip(t *testing.T) {
	s := workload.Overflow()
	rec, _, err := Record(s, Value, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Scenario != rec.Scenario || got.Model != rec.Model || got.Seed != rec.Seed {
		t.Fatalf("identity mismatch: %s vs %s", got.Summary(), rec.Summary())
	}
	if got.Failed != rec.Failed || got.FailureSig != rec.FailureSig {
		t.Fatal("failure identity did not round-trip")
	}
	if got.SchedComplete != rec.SchedComplete || got.LogBytes != rec.LogBytes ||
		got.EventCount != rec.EventCount {
		t.Fatal("metadata did not round-trip")
	}
	if len(got.Full) != len(rec.Full) {
		t.Fatalf("full events: %d vs %d", len(got.Full), len(rec.Full))
	}
	for i := range rec.Full {
		if !got.Full[i].Val.Equal(rec.Full[i].Val) || got.Full[i].Kind != rec.Full[i].Kind {
			t.Fatalf("event %d did not round-trip", i)
		}
	}
	if len(got.Sched) != len(rec.Sched) {
		t.Fatalf("schedule: %d vs %d", len(got.Sched), len(rec.Sched))
	}
	for i := range rec.Sched {
		if got.Sched[i] != rec.Sched[i] {
			t.Fatalf("sched[%d] = %d, want %d", i, got.Sched[i], rec.Sched[i])
		}
	}
	if len(got.Streams) != len(rec.Streams) {
		t.Fatalf("streams: %v vs %v", got.Streams, rec.Streams)
	}
	if got.Params.Get("requests", -1) != rec.Params.Get("requests", -2) {
		t.Fatal("params did not round-trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a recording"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	s := workload.Sum()
	rec, _, err := Record(s, Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 10, len(full) / 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Load accepted truncation at %d", cut)
		}
	}

	// Every strict prefix of a checkpointed recording is reported as a
	// bad recording, whichever section the cut lands in.
	buf.Reset()
	if err := recordCheckpointedBank(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full = buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadRecording) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadRecording", cut, len(full), err)
		}
	}
}

// TestLoadRejectsImpossibleThread: a checkpointed recording whose event
// names a thread that cannot exist yet is a bad recording — refused
// before any per-thread state is sized by the corrupt ID.
func TestLoadRejectsImpossibleThread(t *testing.T) {
	for _, at := range []string{"first", "last"} {
		rec := recordCheckpointedBank(t)
		i := 5
		if at == "last" {
			i = len(rec.Full) - 1
		}
		rec.Full[i].TID = math.MaxInt32
		var buf bytes.Buffer
		if err := rec.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); !errors.Is(err, ErrBadRecording) {
			t.Fatalf("thread %d at the %s event: err = %v, want ErrBadRecording", int32(math.MaxInt32), at, err)
		}
	}
}

func TestRecordingIsDeterministic(t *testing.T) {
	s := workload.Bank()
	r1, _, err := Record(s, Perfect, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Record(s, Perfect, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := r1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical runs produced different serialized recordings")
	}
}

func TestEventsByThreadPreservesOrder(t *testing.T) {
	s := workload.Bank()
	rec, _, err := Record(s, Value, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	byThread := rec.EventsByThread()
	for tid, evs := range byThread {
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Fatalf("thread %d events out of order at %d", tid, i)
			}
		}
	}
}

// recordCheckpointedBank is the shared fixture for the format-compat
// tests: a perfect-model bank recording with checkpoints attached, the
// way core.RecordOnly builds one for Options.CheckpointInterval.
func recordCheckpointedBank(t *testing.T) *Recording {
	t.Helper()
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	var w *checkpoint.Writer
	factory := func(m *vm.Machine) (Policy, []vm.Observer) {
		w = checkpoint.NewWriter(m, 64)
		return PolicyFor(Perfect), []vm.Observer{w}
	}
	rec, _, err := RecordWithPolicy(s, Perfect, factory, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Checkpoints = w.Snapshots()
	rec.CheckpointBytes = w.Bytes()
	return rec
}

// TestLoadLegacyV1 pins backward compatibility: a recording written by the
// previous codec version (v1, before checkpoints existed) loads cleanly
// with no checkpoints — seek then falls back to replay-from-start.
func TestLoadLegacyV1(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.saveVersion(&buf, recVersionLegacy); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 recording failed to load: %v", err)
	}
	if len(loaded.Checkpoints) != 0 {
		t.Fatalf("v1 recording loaded %d checkpoints", len(loaded.Checkpoints))
	}
	if loaded.Scenario != rec.Scenario || loaded.EventCount != rec.EventCount ||
		len(loaded.Full) != len(rec.Full) || len(loaded.Sched) != len(rec.Sched) {
		t.Fatalf("v1 load lost data: %s vs %s", loaded.Summary(), rec.Summary())
	}
}

// TestCheckpointSaveLoadRoundTrip pins the v2 persistence of checkpoints:
// snapshots survive save/load exactly, including the rehydrated stream
// histories.
func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CheckpointBytes != rec.CheckpointBytes {
		t.Errorf("checkpoint bytes %d -> %d", rec.CheckpointBytes, loaded.CheckpointBytes)
	}
	if len(loaded.Checkpoints) != len(rec.Checkpoints) {
		t.Fatalf("checkpoints %d -> %d", len(rec.Checkpoints), len(loaded.Checkpoints))
	}
	for i := range rec.Checkpoints {
		if err := loaded.Checkpoints[i].EqualState(rec.Checkpoints[i]); err != nil {
			t.Fatalf("checkpoint %d differs after round-trip: %v", i, err)
		}
	}
}

// TestLoadRejectsCheckpointTruncation extends the truncation contract to
// the v2 checkpoint section: every strict prefix errors, never panics.
func TestLoadRejectsCheckpointTruncation(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

// TestRestoreIndexBuiltOnce: a loaded checkpointed recording keeps the
// index Load rehydrated through, and concurrent readers, value copies
// included, all get that one index.
func TestRestoreIndexBuiltOnce(t *testing.T) {
	var buf bytes.Buffer
	if err := recordCheckpointedBank(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	copied := *rec
	got := make([]*checkpoint.Index, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = rec.RestoreIndex()
			} else {
				got[i] = copied.RestoreIndex()
			}
		}(i)
	}
	wg.Wait()
	want := rec.RestoreIndex()
	for i, x := range got {
		if x != want {
			t.Fatalf("reader %d got a different index", i)
		}
	}
}
