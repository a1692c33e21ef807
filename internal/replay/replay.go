// Package replay reconstructs executions from recordings, one replayer per
// determinism model:
//
//   - perfect: force the recorded schedule and recorded inputs; the replay
//     is bit-identical to the original in one attempt;
//   - value: greedy value-guided scheduling against the per-thread value
//     logs (the replay reads and writes the same values at the same
//     per-thread execution points, but may discover a different global
//     interleaving — exactly iDNA's guarantee);
//   - output: search (see the infer package) until some execution produces
//     the recorded outputs — it may reach them through different inputs
//     and interleavings, which is the paper's 2+2=5 hazard;
//   - failure: search until some execution exhibits the recorded failure
//     signature, trying shrunken configurations first (ESD);
//   - debug-rcse: force the recorded thread schedule and control-plane
//     inputs; re-draw unrecorded data-plane inputs from the search domain.
//     Control-plane behaviour — and with it the failure and its root cause,
//     when they live in the control plane — reproduces exactly.
package replay

import (
	"context"
	"errors"
	"fmt"

	"debugdet/internal/infer"
	"debugdet/internal/lint/sites"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Options configures a replay.
type Options struct {
	// Ctx cancels the replay between candidate executions (nil =
	// context.Background()); it is plumbed into the inference worker
	// pool of search-based models. A canceled replay has Ok=false and
	// Err set.
	Ctx context.Context
	// Budget bounds inference attempts for search-based models
	// (default 200).
	Budget int
	// SearchSeed perturbs inference randomness.
	SearchSeed int64
	// ShrinkParams enables ESD-style shrinking for failure determinism.
	ShrinkParams []scenario.Params
	// MaxSteps bounds each candidate execution.
	MaxSteps uint64
	// Workers sets the inference worker-pool size for search-based
	// models (0 = GOMAXPROCS, 1 = sequential). Results are identical
	// for every worker count; see infer.Search.
	Workers int
	// Suspects are statically implicated lock-order inversions (from
	// detlint's lockorder analysis via sites.Triage); failure-determinism
	// search uses them to visit its PCT candidates first. See
	// infer.Options.Suspects for the bit-identity contract.
	Suspects []sites.Suspect
}

// Validate rejects out-of-domain option values, delegating the knobs
// shared with the inference engine to infer.Options.Validate. Replay
// calls it and surfaces the error through Result.Err.
func (o Options) Validate() error {
	return infer.Options{
		Budget:  o.Budget,
		Workers: o.Workers,
	}.Validate()
}

// Result is a finished replay.
type Result struct {
	// View is the replayed execution (nil if replay failed entirely).
	View *scenario.RunView
	// Ok reports whether the model's own acceptance condition was met
	// (schedule consumed, outputs matched, signature matched, ...).
	Ok bool
	// Attempts counts candidate executions (1 for deterministic
	// replayers).
	Attempts int
	// WorkCycles is total virtual time spent producing the replay,
	// across all attempts.
	WorkCycles uint64
	// WorkSteps is total events executed across all attempts: the
	// denominator of debugging efficiency (virtual time includes idle
	// waits that would unfairly favour replays that skip them).
	WorkSteps uint64
	// Note describes how the replay was obtained.
	Note string
	// Err is the context error when the replay was canceled, nil
	// otherwise.
	Err error
}

// Replay dispatches on the recording's model.
func Replay(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if err := o.Validate(); err != nil {
		return &Result{Note: "invalid options", Err: err}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Budget == 0 {
		o.Budget = 200
	}
	if err := o.Ctx.Err(); err != nil {
		return &Result{Note: "replay canceled", Err: err}
	}
	switch rec.Model {
	case record.Perfect:
		return replayPerfect(s, rec, o)
	case record.Value:
		return replayValue(s, rec, o)
	case record.Output:
		return replaySearch(s, rec, o, "output-constrained search")
	case record.Failure:
		return replaySearch(s, rec, o, "failure-signature search")
	case record.DebugRCSE:
		return replayRCSE(s, rec, o)
	}
	return &Result{Note: fmt.Sprintf("unknown model %v", rec.Model)}
}

// replayPerfect forces the complete schedule and the recorded inputs.
func replayPerfect(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if !rec.SchedComplete {
		return &Result{Note: "perfect recording lacks a complete schedule"}
	}
	view := s.Exec(scenario.ExecOptions{
		Seed:      rec.Seed,
		Params:    rec.Params,
		Scheduler: vm.NewReplayScheduler(rec.Sched),
		Inputs:    &vm.MapInputs{Values: rec.InputsByStream(), Base: vm.ZeroInputs},
		MaxSteps:  o.MaxSteps,
		RelaxTime: true,
	})
	ok := view.Result.Outcome != vm.OutcomeDiverged && replayMatchesTerminal(s, rec, view)
	return &Result{
		View:       view,
		Ok:         ok,
		Attempts:   1,
		WorkCycles: view.Result.Cycles,
		WorkSteps:  view.Result.Steps,
		Note:       "deterministic re-execution",
	}
}

// replayRCSE forces the schedule stream and the recorded control-plane
// inputs, re-drawing data-plane inputs from the search domain. A handful
// of data-input seeds are tried in case unrecorded values steer control
// flow (they do not in well-separated programs; the attempts guard
// pathological scenarios).
func replayRCSE(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if !rec.SchedComplete {
		return &Result{Note: "rcse recording lacks a complete schedule"}
	}
	// Only the declared control streams are forced: the policy records
	// them completely, so their (stream, index) alignment is exact.
	// Trigger dial-ups may additionally capture fragments of data
	// streams, but those fragments have unknown stream offsets and are
	// used for inspection, not forcing.
	control := make(map[string]bool, len(s.ControlStreams))
	for _, name := range s.ControlStreams {
		control[name] = true
	}
	forced := rec.InputsByStream()
	//lint:nondet-ok per-key filter: each delete depends only on its own key, never on visit order
	for name := range forced {
		if !control[name] {
			delete(forced, name)
		}
	}
	res := &Result{Note: "forced schedule + control inputs"}
	tries := 8
	if o.Budget < tries {
		tries = o.Budget
	}
	for i := 0; i < tries; i++ {
		if err := o.Ctx.Err(); err != nil {
			res.Err = err
			res.Note = "replay canceled"
			return res
		}
		view := s.Exec(scenario.ExecOptions{
			Seed:      rec.Seed,
			Params:    rec.Params,
			Scheduler: vm.NewReplayScheduler(rec.Sched),
			Inputs: &vm.MapInputs{
				Values: forced,
				Base:   s.SearchSource(o.SearchSeed+int64(i), s.DefaultParams.Clone(rec.Params)),
			},
			MaxSteps:  o.MaxSteps,
			RelaxTime: true,
		})
		res.Attempts++
		res.WorkCycles += view.Result.Cycles
		res.WorkSteps += view.Result.Steps
		res.View = view
		if view.Result.Outcome != vm.OutcomeDiverged && replayMatchesTerminal(s, rec, view) {
			res.Ok = true
			return res
		}
	}
	return res
}

// replaySearch runs the inference search SearchConfig describes,
// prefixing the outcome's note with what was searched for.
func replaySearch(s *scenario.Scenario, rec *record.Recording, o Options, what string) *Result {
	accept, io, err := SearchConfig(s, rec, o)
	if err != nil {
		return &Result{Note: err.Error()}
	}
	out := infer.Search(s, accept, io)
	return &Result{
		View:       out.View,
		Ok:         out.Ok,
		Attempts:   out.Attempts,
		WorkCycles: out.WorkCycles,
		WorkSteps:  out.WorkSteps,
		Note:       what + ": " + out.Note,
		Err:        out.Err,
	}
}

// SearchConfig returns the inference search that replaying rec runs
// under the output model (accept executions producing the recorded
// outputs) or the failure model (accept executions with the recorded
// failure signature, shrunken configurations first). Replay runs exactly
// this search; code that measures the search mechanism itself, such as
// forked candidate execution (infer.Options.Fork), calls infer.Search
// with it directly. A failure recording of a run that did not fail has
// nothing to synthesize and is an error, as is any other model.
func SearchConfig(s *scenario.Scenario, rec *record.Recording, o Options) (func(*scenario.RunView) bool, infer.Options, error) {
	io := infer.Options{
		Ctx:      o.Ctx,
		Budget:   o.Budget,
		BaseSeed: o.SearchSeed,
		Params:   rec.Params,
		MaxSteps: o.MaxSteps,
		Workers:  o.Workers,
	}
	switch rec.Model {
	case record.Output:
		want := rec.OutputsByStream()
		return func(v *scenario.RunView) bool { return outputsMatch(want, v) }, io, nil
	case record.Failure:
		if !rec.Failed {
			return nil, io, errors.New("original run did not fail; nothing to synthesize")
		}
		io.ShrinkParams = o.ShrinkParams
		io.Suspects = o.Suspects
		return func(v *scenario.RunView) bool {
			failed, sig := s.CheckFailure(v)
			return failed && sig == rec.FailureSig
		}, io, nil
	}
	return nil, io, fmt.Errorf("replay: %v recordings are not replayed by search", rec.Model)
}

// replayMatchesTerminal checks that the replay's failure identity matches
// the recording's: both failed with the same signature, or both finished
// clean.
func replayMatchesTerminal(s *scenario.Scenario, rec *record.Recording, v *scenario.RunView) bool {
	return matchesTerminal(s, rec.Failed, rec.FailureSig, v)
}

// matchesTerminal is replayMatchesTerminal against a bare terminal
// identity (shared with the store-backed seek, whose source may be a
// spill directory rather than a Recording).
func matchesTerminal(s *scenario.Scenario, failed bool, sig string, v *scenario.RunView) bool {
	gotFailed, gotSig := s.CheckFailure(v)
	return gotFailed == failed && gotSig == sig
}

// outputsMatch compares per-stream output sequences, resolving the
// recording's stream names against the replay machine.
func outputsMatch(want map[string][]trace.Value, v *scenario.RunView) bool {
	got := v.Result.Outputs
	if len(got) != len(want) {
		return false
	}
	//lint:nondet-ok pure all-keys conjunction: the result is the same whichever key fails first
	for name, ws := range want {
		gs, ok := got[name]
		if !ok || len(gs) != len(ws) {
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
