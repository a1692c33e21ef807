// Package oracle is progen's differential harness: metamorphic
// invariants of the record/replay system that must hold on *every* valid
// program, checked over generated ones — (a) replay reproduction, (b) DF
// monotonicity up the model hierarchy, (c) worker-count invariance of
// inference, (d) fork equivalence of checkpoint-forked search, (e)
// shrink soundness. Each oracle returns nil when the invariant holds and
// a descriptive error when it is violated; Check runs all five. The oracles are deterministic functions of the program,
// so a seed that passes once passes forever — which is what lets the
// normal test suite sweep a fixed seed corpus while go test -fuzz
// explores new seeds.
//
// The harness lives one package below the generator because it drives
// the full evaluation pipeline (internal/core), which the workload
// catalog — itself a progen importer — sits underneath.
package oracle

import (
	"fmt"
	"reflect"
	"strings"

	"debugdet/internal/core"
	"debugdet/internal/infer"
	"debugdet/internal/progen"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Report summarizes one program's pass through the oracles, for corpus
// statistics (how many generated runs failed, how many shrank).
type Report struct {
	// Failed reports whether the production run manifested the injected
	// bug at the program's seed.
	Failed bool
	// Sig is the production failure signature ("" when Failed is false).
	Sig string
	// Shrunk reports whether the shrink oracle synthesized a strictly
	// shorter failing execution from a reduced parameter set.
	Shrunk bool
	// DF holds the fidelity of the perfect, value and output models, in
	// that order (the monotonicity oracle's evidence).
	DF [3]float64
}

// Check runs every oracle over the program with the given inference
// budget, returning the first violation.
func Check(p progen.Program, budget int) (Report, error) {
	rep := Report{}
	if err := CheckReplayReproduction(p, budget); err != nil {
		return rep, err
	}
	df, err := CheckDFMonotonic(p, budget)
	rep.DF = df
	if err != nil {
		return rep, err
	}
	if err := CheckWorkerInvariance(p, budget); err != nil {
		return rep, err
	}
	if err := CheckForkEquivalence(p, budget); err != nil {
		return rep, err
	}
	shrunk, failed, sig, err := CheckShrinkSoundness(p, budget)
	rep.Shrunk, rep.Failed, rep.Sig = shrunk, failed, sig
	return rep, err
}

// evalOpts builds the evaluation options for one oracle run. Every axis
// that could perturb determinism is pinned: sequential workers (the
// worker-invariance oracle varies them explicitly) and a fixed budget.
func evalOpts(p progen.Program, budget, workers int) core.Options {
	return core.Options{
		Seed:         p.Seed,
		Params:       p.Params,
		ReplayBudget: budget,
		Workers:      workers,
	}
}

// CheckReplayReproduction is oracle (a): for each deterministic replayer
// — perfect, value, debug-rcse — recording the production run and
// replaying it must reproduce the model's guaranteed observables: the
// replay is accepted, the failure identity (failed flag and signature)
// matches the recording, and a perfect replay is event-identical to the
// original modulo virtual timestamps.
//
// One exemption is deliberate: when the production run ends in a machine
// deadlock, value determinism is allowed to miss. Per-thread value logs
// carry no synchronization order — exactly the limitation the corpus's
// hand-written deadlock scenario documents — so the value-guided replay
// of a synchronization-only failure is best-effort. Its soundness is
// still checked: an accepted value replay must match the recorded
// failure identity.
func CheckReplayReproduction(p progen.Program, budget int) error {
	for _, model := range []record.Model{record.Perfect, record.Value, record.DebugRCSE} {
		rec, orig, _, err := core.RecordOnly(p.Scenario, model, evalOpts(p, budget, 1))
		if err != nil {
			return fmt.Errorf("progen: %s record: %w", model, err)
		}
		res := replay.Replay(p.Scenario, rec, replay.Options{
			Budget: budget, Workers: 1,
		})
		if res.Err != nil {
			return fmt.Errorf("progen: %s replay: %w", model, res.Err)
		}
		syncOnly := orig.Result.Outcome == vm.OutcomeDeadlock
		if !res.Ok {
			if model == record.Value && syncOnly {
				continue // documented best-effort case
			}
			return fmt.Errorf("progen: %s replay of %s (gen=%d seed=%d) not accepted: %s",
				model, p.Scenario.Name, p.GenSeed, p.Seed, res.Note)
		}
		failed, sig := p.Scenario.CheckFailure(res.View)
		if failed != rec.Failed || sig != rec.FailureSig {
			return fmt.Errorf("progen: %s replay failure identity %v/%q, recorded %v/%q",
				model, failed, sig, rec.Failed, rec.FailureSig)
		}
		if model == record.Perfect {
			if !trace.EventsEqual(orig.Trace, res.View.Trace, true) {
				return fmt.Errorf("progen: perfect replay of %s (gen=%d seed=%d) is not event-identical",
					p.Scenario.Name, p.GenSeed, p.Seed)
			}
		}
	}
	return nil
}

// CheckDFMonotonic is oracle (b): debugging fidelity must be monotone up
// the determinism-model hierarchy — a model that records strictly more
// can never debug strictly worse. Checked on the deterministic end of the
// spectrum the paper orders by information content: perfect ≥ value ≥
// output. Perfect determinism must dominate both unconditionally; the
// value ≥ output leg carries the same synchronization-only exemption as
// the reproduction oracle (on a deadlocked production run the value
// replayer makes no guarantee, while "no outputs" is a constraint the
// output search can satisfy, so the leg can legitimately invert there).
func CheckDFMonotonic(p progen.Program, budget int) ([3]float64, error) {
	models := []record.Model{record.Perfect, record.Value, record.Output}
	var df [3]float64
	syncOnly := false
	for i, model := range models {
		ev, err := core.Evaluate(p.Scenario, model, evalOpts(p, budget, 1))
		if err != nil {
			return df, fmt.Errorf("progen: %s evaluate: %w", model, err)
		}
		df[i] = ev.Utility.DF
		if model == record.Perfect {
			syncOnly = ev.Orig.Result.Outcome == vm.OutcomeDeadlock
		}
	}
	const eps = 1e-9
	if df[0]+eps < df[1] || df[0]+eps < df[2] {
		return df, fmt.Errorf("progen: perfect determinism dominated on %s (gen=%d seed=%d): perfect=%.3f value=%.3f output=%.3f",
			p.Scenario.Name, p.GenSeed, p.Seed, df[0], df[1], df[2])
	}
	if !syncOnly && df[1]+eps < df[2] {
		return df, fmt.Errorf("progen: DF not monotone on %s (gen=%d seed=%d): perfect=%.3f value=%.3f output=%.3f",
			p.Scenario.Name, p.GenSeed, p.Seed, df[0], df[1], df[2])
	}
	return df, nil
}

// CheckWorkerInvariance is oracle (c): the result of a search-based
// evaluation is a deterministic function of the program and must be
// bit-identical for every worker count. Failure determinism exercises
// the full inference pool (its accept predicate is non-trivial for every
// family).
func CheckWorkerInvariance(p progen.Program, budget int) error {
	seq, err := core.Evaluate(p.Scenario, record.Failure, evalOpts(p, budget, 1))
	if err != nil {
		return fmt.Errorf("progen: sequential evaluate: %w", err)
	}
	par, err := core.Evaluate(p.Scenario, record.Failure, evalOpts(p, budget, 3))
	if err != nil {
		return fmt.Errorf("progen: parallel evaluate: %w", err)
	}
	type fingerprint struct {
		DF, DE, DU           float64
		Ok                   bool
		Attempts             int
		WorkSteps, WorkCyc   uint64
		Note                 string
		Overhead             float64
		LogBytes             int64
		OrigCauses, RepCause []string
	}
	fp := func(ev *core.Evaluation) fingerprint {
		return fingerprint{
			DF: ev.Utility.DF, DE: ev.Utility.DE, DU: ev.Utility.DU,
			Ok: ev.Replay.Ok, Attempts: ev.Replay.Attempts,
			WorkSteps: ev.Replay.WorkSteps, WorkCyc: ev.Replay.WorkCycles,
			Note: ev.Replay.Note, Overhead: ev.Overhead, LogBytes: ev.LogBytes,
			OrigCauses: ev.Fidelity.OrigCauses, RepCause: ev.Fidelity.ReplayCauses,
		}
	}
	if a, b := fp(seq), fp(par); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("progen: worker-count variance on %s (gen=%d seed=%d):\nworkers=1: %+v\nworkers=3: %+v",
			p.Scenario.Name, p.GenSeed, p.Seed, a, b)
	}
	return nil
}

// CheckForkEquivalence is oracle (d): checkpoint-forked candidate
// execution (infer.Options.Fork, run through infer.Forker) must accept
// the identical candidate as the from-scratch search — same acceptance,
// same attempt count, same note, same event stream and failure identity
// — across snapshot intervals and worker counts. The search is the one
// failure-determinism replay runs (replay.SearchConfig). Only the work
// counters may legitimately differ (shrinking them is the point of
// forking), and forking must never execute more events than scratch.
func CheckForkEquivalence(p progen.Program, budget int) error {
	rec, _, _, err := core.RecordOnly(p.Scenario, record.Failure, evalOpts(p, budget, 1))
	if err != nil {
		return fmt.Errorf("progen: failure record: %w", err)
	}
	if !rec.Failed {
		return nil // nothing to synthesize, so no search to compare
	}
	accept, io, err := replay.SearchConfig(p.Scenario, rec, replay.Options{Budget: budget, Workers: 1})
	if err != nil {
		return fmt.Errorf("progen: failure search: %w", err)
	}
	base := infer.Search(p.Scenario, accept, io)
	if base.Err != nil {
		return fmt.Errorf("progen: scratch search: %w", base.Err)
	}
	for _, cfg := range []struct {
		workers  int
		interval int64
	}{
		{1, 0}, {1, 64}, {3, 0},
	} {
		fo := io
		fo.Workers = cfg.workers
		fo.Fork = true
		fo.ForkInterval = cfg.interval
		fork := infer.Search(p.Scenario, accept, fo)
		if fork.Err != nil {
			return fmt.Errorf("progen: forked search (workers=%d interval=%d): %w",
				cfg.workers, cfg.interval, fork.Err)
		}
		if fork.Ok != base.Ok || fork.Attempts != base.Attempts || fork.Note != base.Note {
			return fmt.Errorf("progen: fork variance on %s (gen=%d seed=%d, workers=%d interval=%d): ok=%v attempts=%d note=%q vs scratch ok=%v attempts=%d note=%q",
				p.Scenario.Name, p.GenSeed, p.Seed, cfg.workers, cfg.interval,
				fork.Ok, fork.Attempts, fork.Note, base.Ok, base.Attempts, base.Note)
		}
		if (base.View == nil) != (fork.View == nil) {
			return fmt.Errorf("progen: fork variance on %s (gen=%d seed=%d): one search has a view, the other does not",
				p.Scenario.Name, p.GenSeed, p.Seed)
		}
		if base.View != nil {
			if !trace.EventsEqual(base.View.Trace, fork.View.Trace, false) {
				return fmt.Errorf("progen: forked search of %s (gen=%d seed=%d, workers=%d interval=%d) accepted a different event stream",
					p.Scenario.Name, p.GenSeed, p.Seed, cfg.workers, cfg.interval)
			}
			bf, bs := p.Scenario.CheckFailure(base.View)
			ff, fs := p.Scenario.CheckFailure(fork.View)
			if bf != ff || bs != fs {
				return fmt.Errorf("progen: forked search failure identity %v/%q, scratch %v/%q",
					ff, fs, bf, bs)
			}
		}
		if fork.WorkSteps > base.WorkSteps {
			return fmt.Errorf("progen: forked search of %s (gen=%d seed=%d, workers=%d interval=%d) executed more steps (%d) than scratch (%d)",
				p.Scenario.Name, p.GenSeed, p.Seed, cfg.workers, cfg.interval,
				fork.WorkSteps, base.WorkSteps)
		}
	}
	return nil
}

// shrinkSets returns the family's reduced parameter sets (fewer threads,
// iterations or messages), each merged over the program's own parameters
// so the generator seed is preserved.
func shrinkSets(p progen.Program) []scenario.Params {
	var overrides []scenario.Params
	switch p.Family {
	case progen.Atomicity:
		overrides = []scenario.Params{{"threads": 2, "iters": 1}, {"iters": 2}}
	case progen.LockCycle:
		overrides = []scenario.Params{{"iters": 1}}
	case progen.LostMessage:
		overrides = []scenario.Params{{"messages": 2}, {"messages": 3}}
	case progen.Oversell:
		overrides = []scenario.Params{{"buyers": 2, "attempts": 1}, {"attempts": 1}}
	default: // CrashPoint
		overrides = []scenario.Params{{"records": 3}, {"records": 4, "group": 2}}
	}
	sets := make([]scenario.Params, len(overrides))
	for i, o := range overrides {
		sets[i] = p.Params.Clone(o)
	}
	return sets
}

// CheckShrinkSoundness is oracle (e): ESD-style shrinking must be sound —
// when the failure-determinism search accepts an execution synthesized
// from a reduced parameter set, that shrunken execution still exhibits
// the original failure signature, the accepted parameters really are one
// of the supplied shrink sets, and the whole search is reproducible
// (re-running it yields the identical outcome). It returns whether a
// shrunken execution was accepted and the production run's failure
// identity.
func CheckShrinkSoundness(p progen.Program, budget int) (shrunk, failed bool, sig string, err error) {
	rec, _, _, err := core.RecordOnly(p.Scenario, record.Failure, evalOpts(p, budget, 1))
	if err != nil {
		return false, false, "", fmt.Errorf("progen: failure record: %w", err)
	}
	failed, sig = rec.Failed, rec.FailureSig
	if !rec.Failed {
		return false, false, "", nil // nothing to synthesize
	}
	accept := func(v *scenario.RunView) bool {
		f, s := p.Scenario.CheckFailure(v)
		return f && s == rec.FailureSig
	}
	o := infer.Options{
		Budget:       budget,
		BaseSeed:     7,
		Params:       p.Params,
		ShrinkParams: shrinkSets(p),
		Workers:      1,
	}
	out := infer.Search(p.Scenario, accept, o)
	again := infer.Search(p.Scenario, accept, o)
	if out.Ok != again.Ok || out.Attempts != again.Attempts ||
		out.Note != again.Note || out.WorkSteps != again.WorkSteps {
		return false, failed, sig, fmt.Errorf("progen: shrink search not reproducible on %s (gen=%d seed=%d): %q/%d vs %q/%d",
			p.Scenario.Name, p.GenSeed, p.Seed, out.Note, out.Attempts, again.Note, again.Attempts)
	}
	if !out.Ok {
		return false, failed, sig, nil // budget exhausted; nothing to verify
	}
	if f, s := p.Scenario.CheckFailure(out.View); !f || s != rec.FailureSig {
		return false, failed, sig, fmt.Errorf("progen: accepted synthesis of %s does not fail with %q (got %v/%q)",
			p.Scenario.Name, rec.FailureSig, f, s)
	}
	if strings.HasPrefix(out.Note, "shrink") {
		matched := false
		for _, sp := range shrinkSets(p) {
			if reflect.DeepEqual(out.AcceptedParams, sp) {
				matched = true
				break
			}
		}
		if !matched {
			return false, failed, sig, fmt.Errorf("progen: %s accepted %q with params %v not among the shrink sets",
				p.Scenario.Name, out.Note, out.AcceptedParams)
		}
		return true, failed, sig, nil
	}
	return false, failed, sig, nil
}
