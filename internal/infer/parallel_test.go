package infer

import (
	"context"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// outcomesEqual compares every Outcome field the determinism contract
// covers, including the accepted execution's trace.
func outcomesEqual(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if a.Ok != b.Ok || a.Attempts != b.Attempts ||
		a.WorkCycles != b.WorkCycles || a.WorkSteps != b.WorkSteps ||
		a.Note != b.Note {
		t.Fatalf("%s: outcomes differ:\n  workers=1: ok=%v attempts=%d cycles=%d steps=%d note=%q\n  workers=N: ok=%v attempts=%d cycles=%d steps=%d note=%q",
			label,
			a.Ok, a.Attempts, a.WorkCycles, a.WorkSteps, a.Note,
			b.Ok, b.Attempts, b.WorkCycles, b.WorkSteps, b.Note)
	}
	if a.AcceptedParams.String() != b.AcceptedParams.String() {
		t.Fatalf("%s: accepted params %q vs %q", label, a.AcceptedParams, b.AcceptedParams)
	}
	if (a.View == nil) != (b.View == nil) {
		t.Fatalf("%s: one search has a view, the other does not", label)
	}
	if a.View != nil {
		if a.View.Result.Outcome != b.View.Result.Outcome {
			t.Fatalf("%s: accepted outcomes %v vs %v", label, a.View.Result.Outcome, b.View.Result.Outcome)
		}
		if !trace.EventsEqual(a.View.Trace, b.View.Trace, false) {
			t.Fatalf("%s: accepted traces differ", label)
		}
	}
}

// TestParallelSearchDeterministic pins the worker-pool contract on an
// ODR-style cell (search for recorded outputs) and an ESD-style cell
// (search for a failure signature with shrinking): the Outcome is
// bit-identical for workers=1 and workers=N.
func TestParallelSearchDeterministic(t *testing.T) {
	// ODR cell: record a production run of msgdrop, then search for any
	// execution reproducing its outputs.
	odr := workload.MsgDrop()
	orig := odr.Exec(scenario.ExecOptions{Seed: odr.DefaultSeed})
	want := orig.Result.Outputs
	acceptODR := func(v *scenario.RunView) bool {
		got := v.Result.Outputs
		if len(got) != len(want) {
			return false
		}
		for name, ws := range want {
			gs := got[name]
			if len(gs) != len(ws) {
				return false
			}
			for i := range ws {
				if !ws[i].Equal(gs[i]) {
					return false
				}
			}
		}
		return true
	}

	// ESD cell: search for the overflow crash signature, shrunken
	// configurations first.
	esd := workload.Overflow()
	acceptESD := func(v *scenario.RunView) bool {
		failed, sig := esd.CheckFailure(v)
		return failed && sig == "overflow:segfault"
	}

	cases := map[string]struct {
		s      *scenario.Scenario
		accept func(*scenario.RunView) bool
		opts   Options
	}{
		"odr-msgdrop": {odr, acceptODR, Options{Budget: 120, BaseSeed: 7}},
		"esd-overflow": {esd, acceptESD, Options{
			Budget: 120, BaseSeed: 7,
			ShrinkParams: []scenario.Params{{"requests": 2}, {"requests": 4}},
		}},
		// Exhaustion: the contract must also hold when nothing accepts.
		"exhausted": {esd, func(*scenario.RunView) bool { return false }, Options{Budget: 37, BaseSeed: 3}},
	}
	for name, tc := range cases {
		seqOpts := tc.opts
		seqOpts.Workers = 1
		seq := Search(tc.s, tc.accept, seqOpts)
		for _, workers := range []int{2, 4, 7} {
			parOpts := tc.opts
			parOpts.Workers = workers
			par := Search(tc.s, tc.accept, parOpts)
			outcomesEqual(t, name, seq, par)
		}
	}
}

// TestSearchCanceled pins the cancellation contract for both pool shapes:
// a search whose context is canceled stops between candidates, reports
// Err, and never accepts.
func TestSearchCanceled(t *testing.T) {
	s := workload.Overflow()
	reject := func(*scenario.RunView) bool { return false }
	for _, workers := range []int{1, 4} {
		// Already canceled: no candidate may be accepted and Err must be
		// the context error.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out := Search(s, reject, Options{Ctx: ctx, Budget: 40, BaseSeed: 5, Workers: workers})
		if out.Ok || out.Err != context.Canceled {
			t.Fatalf("workers=%d: ok=%v err=%v, want canceled", workers, out.Ok, out.Err)
		}
		if out.Note != "search canceled" {
			t.Fatalf("workers=%d: note = %q", workers, out.Note)
		}
	}

	// Cancel mid-search from the accept callback: the pool must drain and
	// stop well before the budget.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	out := Search(s, func(*scenario.RunView) bool {
		calls++
		if calls == 3 {
			cancel()
		}
		return false
	}, Options{Ctx: ctx, Budget: 500, BaseSeed: 5, Workers: 4})
	if out.Err != context.Canceled {
		t.Fatalf("mid-search cancel: err = %v", out.Err)
	}
	if out.Attempts >= 500 {
		t.Fatalf("canceled search ran the whole budget (%d attempts)", out.Attempts)
	}
}

// TestParallelSearchAcceptOrdering pins the accept-callback contract: the
// collector invokes accept in strictly increasing candidate order, exactly
// the indices the sequential search would have visited, so accept needs no
// locking even with many workers.
func TestParallelSearchAcceptOrdering(t *testing.T) {
	s := workload.Overflow()
	var order []int64
	accept := func(v *scenario.RunView) bool {
		// Candidate i runs with seed BaseSeed+i; recover i from the view.
		order = append(order, v.Seed-100)
		failed, _ := s.CheckFailure(v)
		return failed
	}
	out := Search(s, accept, Options{Budget: 60, BaseSeed: 100, Workers: 4})
	if !out.Ok {
		t.Fatalf("search failed: %s", out.Note)
	}
	if len(order) != out.Attempts {
		t.Fatalf("accept called %d times, attempts = %d", len(order), out.Attempts)
	}
	for i, idx := range order {
		if idx != int64(i) {
			t.Fatalf("accept call %d saw candidate %d; want strictly sequential order", i, idx)
		}
	}
}
