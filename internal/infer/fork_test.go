package infer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// acceptedEqual compares the fields the fork-equivalence contract pins:
// everything outcomesEqual covers except the work counters, which forked
// search deliberately reduces.
func acceptedEqual(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if a.Ok != b.Ok || a.Attempts != b.Attempts || a.Note != b.Note {
		t.Fatalf("%s: outcomes differ: ok=%v attempts=%d note=%q vs ok=%v attempts=%d note=%q",
			label, a.Ok, a.Attempts, a.Note, b.Ok, b.Attempts, b.Note)
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
		if !reflect.DeepEqual(a.View.Result.Outputs, b.View.Result.Outputs) {
			t.Fatalf("%s: accepted outputs differ", label)
		}
	}
}

// TestForkedSearchBitEquivalent is the tentpole contract: the forked
// search accepts the identical candidate, with identical Attempts, as the
// sequential from-scratch search — across scenario styles (ESD signature
// search with shrinking, ODR output searches, deadlock search, exhaustion),
// snapshot intervals and worker counts.
func TestForkedSearchBitEquivalent(t *testing.T) {
	odr := workload.MsgDrop()
	orig := odr.Exec(scenario.ExecOptions{Seed: odr.DefaultSeed})
	want := orig.Result.Outputs
	acceptODR := func(v *scenario.RunView) bool {
		return reflect.DeepEqual(v.Result.Outputs, want)
	}

	sum := workload.Sum()
	sumWant := sum.Exec(scenario.ExecOptions{Seed: sum.DefaultSeed}).Result.Outputs
	acceptSum := func(v *scenario.RunView) bool {
		return reflect.DeepEqual(v.Result.Outputs, sumWant)
	}

	esd := workload.Overflow()
	acceptESD := func(v *scenario.RunView) bool {
		failed, sig := esd.CheckFailure(v)
		return failed && sig == "overflow:segfault"
	}

	dead, err := workload.ByName("deadlock")
	if err != nil {
		t.Fatal(err)
	}
	acceptDead := func(v *scenario.RunView) bool {
		failed, _ := dead.CheckFailure(v)
		return failed
	}

	cases := map[string]struct {
		s      *scenario.Scenario
		accept func(*scenario.RunView) bool
		opts   Options
	}{
		"odr-msgdrop": {odr, acceptODR, Options{Budget: 120, BaseSeed: 7}},
		"odr-sum":     {sum, acceptSum, Options{Budget: 120}},
		"esd-overflow": {esd, acceptESD, Options{
			Budget: 120, BaseSeed: 7,
			ShrinkParams: []scenario.Params{{"requests": 2}, {"requests": 4}},
		}},
		"deadlock":  {dead, acceptDead, Options{Budget: 60, BaseSeed: 7}},
		"exhausted": {esd, func(*scenario.RunView) bool { return false }, Options{Budget: 37, BaseSeed: 3}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			seqOpts := tc.opts
			seqOpts.Workers = 1
			seq := Search(tc.s, tc.accept, seqOpts)
			for _, cfg := range []struct {
				label    string
				workers  int
				interval int64
			}{
				{"fork-w1", 1, 0},
				{"fork-w1-i64", 1, 64},
				{"fork-w4", 4, 0},
				{"fork-w4-i64", 4, 64},
			} {
				forkOpts := tc.opts
				forkOpts.Workers = cfg.workers
				forkOpts.Fork = true
				forkOpts.ForkInterval = cfg.interval
				fork := Search(tc.s, tc.accept, forkOpts)
				acceptedEqual(t, name+"/"+cfg.label, seq, fork)
				if fork.WorkSteps > seq.WorkSteps {
					t.Fatalf("%s/%s: forked search executed more steps (%d) than scratch (%d)",
						name, cfg.label, fork.WorkSteps, seq.WorkSteps)
				}
			}
		})
	}
}

// TestForkedForcedScheduleSavesWork pins the win on the RCSE-shaped
// search: with a complete forced schedule and forced control inputs every
// candidate is equivalent, so the forked search executes the trunk once
// and prunes the rest — at least halving WorkSteps (in practice dividing
// by the budget).
func TestForkedForcedScheduleSavesWork(t *testing.T) {
	s := workload.Bank()
	v := s.Exec(scenario.ExecOptions{Seed: 3})
	reject := func(*scenario.RunView) bool { return false }
	base := Options{
		Budget:       16,
		BaseSeed:     11,
		Workers:      1,
		Schedule:     v.Trace.Schedule(),
		ForcedInputs: map[string][]trace.Value{"xfer.pick": v.Result.InputsUsed["xfer.pick"]},
	}
	scratch := Search(s, reject, base)
	forkOpts := base
	forkOpts.Fork = true
	fork := Search(s, reject, forkOpts)
	acceptedEqual(t, "forced-schedule", scratch, fork)
	if fork.WorkSteps == 0 {
		t.Fatal("forked search executed nothing, not even the trunk")
	}
	if fork.WorkSteps*2 > scratch.WorkSteps {
		t.Fatalf("forked search saved too little: %d steps forked vs %d scratch",
			fork.WorkSteps, scratch.WorkSteps)
	}
}

// TestForkerBoundaries drives the Forker directly through the fork
// boundary cases: a candidate identical to a retained path (full reuse,
// zero executed work), a candidate diverging past every snapshot (suffix
// execution from a mid-trace snapshot), and a candidate with no usable
// snapshot at all (scratch fallback). Every case must stay bit-identical
// to a from-scratch execution of the same candidate.
func TestForkerBoundaries(t *testing.T) {
	s := workload.Bank()
	rec := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	sched := rec.Trace.Schedule()
	picks := rec.Result.InputsUsed["xfer.pick"]
	if len(picks) < 2 {
		t.Fatalf("recording consumed only %d picks", len(picks))
	}
	mk := func(seed int64, forced []trace.Value) Candidate {
		vals := map[string][]trace.Value{"xfer.pick": forced}
		return Candidate{
			Seed:      seed,
			Scheduler: func() vm.Scheduler { return vm.NewReplayScheduler(sched) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{Values: vals, Base: s.SearchSource(9, s.DefaultParams)}
			},
		}
	}
	scratchOf := func(c Candidate) *scenario.RunView {
		return s.Exec(scenario.ExecOptions{Seed: c.Seed, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
	}
	same := func(label string, got, want *scenario.RunView) {
		t.Helper()
		if got.Result.Outcome != want.Result.Outcome {
			t.Fatalf("%s: outcome %v, want %v", label, got.Result.Outcome, want.Result.Outcome)
		}
		if got.Result.Steps != want.Result.Steps || got.Result.Cycles != want.Result.Cycles {
			t.Fatalf("%s: steps/cycles %d/%d, want %d/%d", label,
				got.Result.Steps, got.Result.Cycles, want.Result.Steps, want.Result.Cycles)
		}
		if !trace.EventsEqual(got.Trace, want.Trace, false) {
			t.Fatalf("%s: traces differ", label)
		}
		if !reflect.DeepEqual(got.Result.Outputs, want.Result.Outputs) {
			t.Fatalf("%s: outputs differ", label)
		}
		if !reflect.DeepEqual(got.Result.InputsUsed, want.Result.InputsUsed) {
			t.Fatalf("%s: inputs differ", label)
		}
	}

	f := NewForker(ForkerConfig{Scenario: s, Interval: 16})
	trunk := mk(100, picks)
	tv, tSteps, _ := f.Run(trunk)
	same("trunk", tv, scratchOf(trunk))
	if tSteps != tv.Result.Steps {
		t.Fatalf("trunk executed %d of its %d steps; the first run has nothing to fork from",
			tSteps, tv.Result.Steps)
	}

	// Full reuse: an equivalent candidate is pruned to zero executed work.
	clone := mk(101, picks)
	cv, cSteps, cCycles := f.Run(clone)
	if cSteps != 0 || cCycles != 0 {
		t.Fatalf("equivalent candidate executed %d steps / %d cycles, want 0/0", cSteps, cCycles)
	}
	same("reuse", cv, scratchOf(clone))
	if cv.Trace.Header.Seed != 101 {
		t.Fatalf("reused view carries seed %d, want the candidate's 101", cv.Trace.Header.Seed)
	}

	// Late divergence: alter only the final input draw; the candidate must
	// restore from a mid-trace snapshot and execute just the suffix.
	altered := append(append([]trace.Value(nil), picks[:len(picks)-1]...),
		trace.Int(picks[len(picks)-1].AsInt()+1))
	late := mk(102, altered)
	lv, lSteps, _ := f.Run(late)
	same("late-divergence", lv, scratchOf(late))
	if lSteps == 0 || lSteps >= lv.Result.Steps {
		t.Fatalf("late divergence executed %d of %d steps, want a proper suffix",
			lSteps, lv.Result.Steps)
	}

	// Early divergence: alter the first draw. The first snapshot (seq 16)
	// lies past the divergence point, so the candidate must fall back to a
	// full from-scratch run — never a wrong snapshot, never a panic.
	first := append([]trace.Value(nil), picks...)
	first[0] = trace.Int(picks[0].AsInt() + 1)
	early := mk(103, first)
	ev, eSteps, _ := f.Run(early)
	same("early-divergence", ev, scratchOf(early))
	if eSteps != ev.Result.Steps {
		t.Fatalf("early divergence executed %d of %d steps, want a full scratch run",
			eSteps, ev.Result.Steps)
	}

	// No snapshots at all (interval beyond the trace): non-equivalent
	// candidates run from scratch, equivalent ones still prune.
	g := NewForker(ForkerConfig{Scenario: s, Interval: 1 << 30})
	g.Run(trunk)
	gv, gSteps, _ := g.Run(late)
	same("no-snapshot", gv, scratchOf(late))
	if gSteps != gv.Result.Steps {
		t.Fatalf("snapshot-free fork executed %d of %d steps, want full scratch",
			gSteps, gv.Result.Steps)
	}
	if _, rSteps, _ := g.Run(clone); rSteps != 0 {
		t.Fatalf("snapshot-free reuse executed %d steps, want 0", rSteps)
	}

	// Forest bound: candidates that each diverge at the first draw cannot
	// fork, so each runs from scratch and is retained until the forest
	// holds maxForest executions. Past that bound nothing more is
	// retained, and every candidate still matches its scratch execution.
	h := NewForker(ForkerConfig{Scenario: s, Interval: 16})
	for k := 1; k <= maxForest+4; k++ {
		vals := append([]trace.Value(nil), picks...)
		vals[0] = trace.Int(picks[0].AsInt() + int64(k))
		c := mk(int64(200+k), vals)
		v, steps, _ := h.Run(c)
		label := fmt.Sprintf("bound-%d", k)
		same(label, v, scratchOf(c))
		if steps != v.Result.Steps {
			t.Fatalf("%s: executed %d of %d steps, want a full scratch run", label, steps, v.Result.Steps)
		}
		if want := min(k, maxForest); len(h.forest) != want {
			t.Fatalf("%s: forest holds %d paths, want %d", label, len(h.forest), want)
		}
	}
}

// TestSearchValidatesOptions pins Options.Validate and its wiring into
// Search: out-of-domain knobs produce a clean error outcome instead of a
// silent reinterpretation (a negative Workers used to run sequentially).
func TestSearchValidatesOptions(t *testing.T) {
	s := workload.Sum()
	reject := func(*scenario.RunView) bool { return false }
	cases := map[string]Options{
		"workers":       {Workers: -1},
		"budget":        {Budget: -5},
		"fork-interval": {Fork: true, ForkInterval: -256},
	}
	for name, o := range cases {
		out := Search(s, reject, o)
		if out.Err == nil || out.Ok || out.View != nil {
			t.Fatalf("%s: invalid options not rejected: err=%v ok=%v", name, out.Err, out.Ok)
		}
		if out.Attempts != 0 {
			t.Fatalf("%s: rejected search still ran %d candidates", name, out.Attempts)
		}
		if out.Note != "invalid options" {
			t.Fatalf("%s: note = %q", name, out.Note)
		}
		if !strings.Contains(out.Err.Error(), "infer:") {
			t.Fatalf("%s: error %q does not identify the package", name, out.Err)
		}
	}
	// The zero defaults all remain valid.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}
