package replay

import (
	"strings"
	"testing"

	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// recordScenario is a helper: record the named scenario's default failing
// run under a model.
func recordScenario(t *testing.T, name string, model record.Model) (*scenario.Scenario, *record.Recording, *scenario.RunView) {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rec, view, err := record.Record(s, model, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec, view
}

func TestPerfectReplayAllScenarios(t *testing.T) {
	for _, name := range []string{"sum", "overflow", "msgdrop", "hyperkv-dataloss", "bank", "deadlock"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, rec, orig := recordScenario(t, name, record.Perfect)
			res := Replay(s, rec, Options{})
			if !res.Ok {
				t.Fatalf("replay not ok: %s", res.Note)
			}
			if res.Attempts != 1 {
				t.Fatalf("perfect replay took %d attempts", res.Attempts)
			}
			// The replay must be value-for-value identical to the
			// original (ignoring virtual time, which recording perturbs
			// only in the separate accounting).
			if !trace.EventsEqual(orig.Trace, res.View.Trace, true) {
				t.Fatal("perfect replay produced a different event sequence")
			}
		})
	}
}

func TestValueReplayReproducesFailures(t *testing.T) {
	for _, name := range []string{"sum", "overflow", "msgdrop", "hyperkv-dataloss", "bank"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, rec, orig := recordScenario(t, name, record.Value)
			res := Replay(s, rec, Options{})
			if !res.Ok {
				t.Fatalf("value replay not ok: %s", res.Note)
			}
			// Per-thread value sequences must match exactly.
			origFailed, origSig := s.CheckFailure(orig)
			repFailed, repSig := s.CheckFailure(res.View)
			if origFailed != repFailed || origSig != repSig {
				t.Fatalf("failure identity mismatch: %v/%q vs %v/%q",
					origFailed, origSig, repFailed, repSig)
			}
		})
	}
}

func TestValueReplayMatchesPerThreadValues(t *testing.T) {
	s, rec, _ := recordScenario(t, "bank", record.Value)
	res := Replay(s, rec, Options{})
	if !res.Ok {
		t.Fatalf("value replay not ok: %s", res.Note)
	}
	// Rebuild per-thread value logs from the replayed oracle trace and
	// compare against the recording: same kinds, sites, objects, values
	// per thread.
	replayByThread := make(map[trace.ThreadID][]trace.Event)
	for _, e := range res.View.Trace.Events {
		if valueLogged(e.Kind) {
			replayByThread[e.TID] = append(replayByThread[e.TID], e)
		}
	}
	for tid, want := range rec.EventsByThread() {
		got := replayByThread[tid]
		if len(got) < len(want) {
			t.Fatalf("thread %d replayed %d value events, want >= %d", tid, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if w.Kind != g.Kind || w.Site != g.Site || w.Obj != g.Obj || !w.Val.Equal(g.Val) {
				t.Fatalf("thread %d event %d mismatch: want %v got %v", tid, i, w, g)
			}
		}
	}
}

func TestOutputReplaySumFindsNonFailingExplanation(t *testing.T) {
	// The paper's 2+2=5 hazard: output determinism reproduces the output
	// (5) through inputs that are not a failure at all.
	s, rec, _ := recordScenario(t, "sum", record.Output)
	// SearchSeed 7 is the evaluation default; under it the first
	// output-matching execution is an innocent one (a+b really is 5), so
	// the narrative of §2 holds and is pinned here.
	res := Replay(s, rec, Options{Budget: 300, SearchSeed: 7})
	if !res.Ok {
		t.Fatalf("output replay not ok: %s", res.Note)
	}
	out := res.View.Result.Outputs["sum.out"]
	if len(out) != 1 || out[0].AsInt() != 5 {
		t.Fatalf("replay output = %v, want [5]", out)
	}
	a := res.View.Result.InputsUsed["in.a"][0].AsInt()
	b := res.View.Result.InputsUsed["in.b"][0].AsInt()
	if a+b != 5 {
		t.Fatalf("synthesized inputs %d+%d do not produce output 5 innocently", a, b)
	}
	if failed, _ := s.CheckFailure(res.View); failed {
		t.Fatal("the innocent explanation must not be a failure")
	}
}

func TestFailureReplayMatchesSignature(t *testing.T) {
	s, rec, _ := recordScenario(t, "hyperkv-dataloss", record.Failure)
	res := Replay(s, rec, Options{Budget: 150})
	if !res.Ok {
		t.Fatalf("failure replay not ok: %s", res.Note)
	}
	failed, sig := s.CheckFailure(res.View)
	if !failed || sig != rec.FailureSig {
		t.Fatalf("synthesized run: failed=%v sig=%q want %q", failed, sig, rec.FailureSig)
	}
}

func TestFailureReplayNothingToDoOnCleanRun(t *testing.T) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0 does not fail (verified by the hyperkv seed sweep).
	rec, view, err := record.Record(s, record.Failure, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := s.CheckFailure(view); failed {
		t.Skip("seed 0 unexpectedly fails; sweep moved")
	}
	res := Replay(s, rec, Options{})
	if res.Ok || res.Attempts != 0 {
		t.Fatalf("clean-run failure replay should do nothing: %+v", res)
	}
}

func TestFailureReplayShrinksWhenAllowed(t *testing.T) {
	s, rec, orig := recordScenario(t, "overflow", record.Failure)
	res := Replay(s, rec, Options{
		Budget:       100,
		ShrinkParams: []scenario.Params{{"requests": 2}},
	})
	if !res.Ok {
		t.Fatalf("shrinking failure replay not ok: %s", res.Note)
	}
	if res.View.Result.Steps >= orig.Result.Steps {
		t.Logf("synthesized execution not shorter (%d vs %d); shrink attempt order note: %s",
			res.View.Result.Steps, orig.Result.Steps, res.Note)
	}
	failed, sig := s.CheckFailure(res.View)
	if !failed || sig != rec.FailureSig {
		t.Fatal("shrunk execution lost the failure signature")
	}
}

func TestPerfectReplayRefusesIncompleteSchedule(t *testing.T) {
	s, rec, _ := recordScenario(t, "sum", record.Perfect)
	rec.SchedComplete = false
	res := Replay(s, rec, Options{})
	if res.Ok {
		t.Fatal("replay accepted an incomplete schedule as perfect")
	}
}

func TestPerfectReplayDetectsTamperedSchedule(t *testing.T) {
	s, rec, _ := recordScenario(t, "bank", record.Perfect)
	// Corrupt the tail of the schedule so the forced order becomes
	// infeasible mid-run.
	if len(rec.Sched) < 30 {
		t.Fatal("schedule too short to tamper with")
	}
	for i := len(rec.Sched) / 2; i < len(rec.Sched); i++ {
		rec.Sched[i] = 99 // nonexistent thread
	}
	res := Replay(s, rec, Options{})
	if res.Ok {
		t.Fatal("replay accepted a tampered schedule")
	}
}

func TestValueReplayDetectsTamperedValues(t *testing.T) {
	s, rec, _ := recordScenario(t, "bank", record.Value)
	// Flip a recorded load value: the gated scheduler must hit a dead end
	// rather than silently reproduce something else.
	tampered := false
	for i := range rec.Full {
		if rec.Full[i].Kind == trace.EvLoad && rec.Full[i].Val.Kind == trace.VInt {
			rec.Full[i].Val = trace.Int(rec.Full[i].Val.AsInt() + 987654)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no load event to tamper with")
	}
	res := Replay(s, rec, Options{})
	if res.Ok {
		t.Fatal("value replay accepted tampered values")
	}
}

func TestUnknownModelRejected(t *testing.T) {
	s, rec, _ := recordScenario(t, "sum", record.Perfect)
	rec2 := *rec
	rec2.Model = record.Model(99)
	res := Replay(s, &rec2, Options{})
	if res.Ok {
		t.Fatal("replay accepted an unknown model")
	}
}

// TestReplayValidatesOptions pins Options.Validate wiring: out-of-domain
// knobs surface as a clean error result, before any candidate executes.
func TestReplayValidatesOptions(t *testing.T) {
	s, rec, _ := recordScenario(t, "bank", record.Output)
	for name, o := range map[string]Options{
		"workers": {Workers: -1},
		"budget":  {Budget: -3},
	} {
		res := Replay(s, rec, o)
		if res.Err == nil || res.Ok || res.View != nil || res.Attempts != 0 {
			t.Fatalf("%s: invalid options not rejected: err=%v ok=%v attempts=%d",
				name, res.Err, res.Ok, res.Attempts)
		}
		if res.Note != "invalid options" {
			t.Fatalf("%s: note = %q", name, res.Note)
		}
		if !strings.Contains(res.Err.Error(), "infer:") {
			t.Fatalf("%s: error %q does not identify the source", name, res.Err)
		}
	}
}
