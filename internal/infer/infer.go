// Package infer implements the execution-synthesis engine behind the
// relaxed determinism models: it reconstructs the non-determinism a
// recorder chose not to persist.
//
// Output determinism (ODR) and failure determinism (ESD) both defer work
// from production to debug time: the replayer must find *some* execution
// consistent with what little was recorded — the same outputs, or just the
// same failure signature. This package realizes that inference as guided
// search over re-executions of the program on the deterministic VM:
//
//   - scheduling non-determinism is searched by enumerating scheduler
//     seeds, alternating uniform-random with PCT (priority-based) search,
//     which reaches rare interleavings with known probability;
//   - input non-determinism is searched by drawing candidate input
//     sequences from the scenario's declared input domains;
//   - recorded fragments (forced inputs, forced schedules) constrain each
//     candidate execution rather than being searched;
//   - ESD-style shrinking tries the scenario's reduced parameter sets
//     first, synthesizing executions shorter than the original — which is
//     how debugging efficiency can exceed 1 (§3.2).
//
// The search accounts its total work in virtual cycles across every
// attempted execution; that is the "analysis time" component of debugging
// efficiency.
package infer

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"debugdet/internal/lint/sites"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Options configures a search.
type Options struct {
	// Ctx cancels the search between candidate executions (nil =
	// context.Background()). A canceled search returns Ok=false with
	// Err set; candidates already accounted stay accounted, so the
	// Outcome of an uncanceled search is unaffected by the field.
	Ctx context.Context
	// Budget is the maximum number of candidate executions (default 200).
	Budget int
	// BaseSeed perturbs the search's own randomness so independent
	// searches explore differently.
	BaseSeed int64
	// Params are the execution parameters (scenario defaults if nil).
	Params scenario.Params
	// ShrinkParams are smaller parameter sets to try first, in order:
	// the ESD-style execution synthesis that can find a shorter
	// execution exhibiting the same failure.
	ShrinkParams []scenario.Params
	// ForcedInputs pins recorded streams: the replay draws these values
	// by (stream, index) and only searches the rest.
	ForcedInputs map[string][]trace.Value
	// Schedule, when non-nil, is a complete recorded schedule to force;
	// only input non-determinism is searched.
	Schedule []trace.ThreadID
	// MaxSteps bounds each candidate execution (0 = VM default).
	MaxSteps uint64
	// Suspects are statically implicated lock-order inversions (from
	// detlint's lockorder analysis via sites.Triage). When non-empty and
	// no schedule is forced, the search visits its uniform-random
	// candidates before its PCT ones: an ABBA deadlock fires only when
	// both threads are preempted inside the hold-one-wait-for-the-other
	// window, and PCT's long single-thread priority runs serialize the
	// critical sections right past it, while random interleaving samples
	// the window directly. Seeding is a stable reordering — every
	// candidate keeps its identity (seed, scheduler, inputs, note, all
	// keyed on the candidate's original index) — so whenever the
	// unseeded search would accept a random-scheduler candidate, the
	// seeded search accepts the bit-identical execution and only
	// Attempts/WorkCycles/WorkSteps shrink.
	Suspects []sites.Suspect
	// Workers is the number of candidate executions run concurrently
	// (default GOMAXPROCS; 1 opts out of parallelism; negative is rejected
	// by Validate). Candidates are bit-deterministic functions of their
	// index, so the Outcome — accepted execution, Attempts, WorkCycles,
	// WorkSteps, Note — is identical for every worker count; see Search
	// for the contract.
	Workers int
	// Fork enables checkpoint-forked candidate execution: completed
	// candidates are retained — with their scheduling rounds and periodic
	// state snapshots — in a bounded prefix forest, each later candidate
	// is dry-run against the forest to find where it first diverges, and
	// only its suffix is executed from the best snapshot at or before that
	// point; a candidate equivalent to a retained execution is pruned to
	// zero executed work (see Forker). The accepted execution, Ok,
	// Attempts, AcceptedParams and Note are bit-identical to the
	// non-forked search at every worker count; WorkCycles and WorkSteps
	// count only the work actually executed — the measured win — and so
	// depend on the forest policy (sequential searches grow the forest as
	// they go; parallel searches freeze it after the first candidate so
	// workers share it read-only, keeping the counts deterministic per
	// worker-count mode).
	Fork bool
	// ForkInterval is the event interval between snapshots on retained
	// executions (0 = checkpoint.DefaultInterval; negative is rejected by
	// Validate). Smaller intervals fork closer to the divergence point at
	// the price of more snapshot memory per retained path.
	ForkInterval int64
	// ForkPaths bounds the prefix forest (0 = 8; negative is rejected by
	// Validate).
	ForkPaths int
}

// Validate rejects option values outside their domain instead of silently
// reinterpreting them, mirroring flightrec.Options.Validate. A negative
// Workers previously fell through to the sequential path as if it were 1,
// hiding the caller's sign bug. Search calls Validate and surfaces the
// error through Outcome.Err.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("infer: Workers must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", o.Workers)
	}
	if o.Budget < 0 {
		return fmt.Errorf("infer: Budget must be >= 0 (0 = default 200), got %d", o.Budget)
	}
	if o.ForkInterval < 0 {
		return fmt.Errorf("infer: ForkInterval must be >= 0 (0 = checkpoint default), got %d", o.ForkInterval)
	}
	if o.ForkPaths < 0 {
		return fmt.Errorf("infer: ForkPaths must be >= 0 (0 = default 8), got %d", o.ForkPaths)
	}
	return nil
}

// Outcome is a finished search.
type Outcome struct {
	// View is the accepted execution (nil when the search failed).
	View *scenario.RunView
	// Ok reports whether a consistent execution was found.
	Ok bool
	// Attempts is the number of candidate executions run.
	Attempts int
	// WorkCycles is the total virtual time across every attempt,
	// including the accepted one: the tool's analysis cost.
	WorkCycles uint64
	// WorkSteps is the total event count across every attempt — the
	// idle-time-free duration proxy debugging efficiency uses.
	WorkSteps uint64
	// AcceptedParams are the parameters of the accepted execution (they
	// differ from the original's when shrinking succeeded).
	AcceptedParams scenario.Params
	// Note summarizes how the result was found, for reports.
	Note string
	// Err is the context error when the search was canceled mid-flight or
	// the validation error when the options were rejected, nil otherwise.
	Err error
}

// paramTry is one slot of the candidate plan. idx is the candidate's
// original plan index, which — not the visiting position — keys the
// candidate's seed, scheduler, inputs and note, so reordering the plan
// (static seeding) changes what is tried first, never what is tried.
type paramTry struct {
	p    scenario.Params
	note string
	idx  int
}

// buildPlan lays out the parameter schedule: shrunken configurations first
// (a few tries each), then the full configuration for the remaining
// budget; static seeding then reorders the visiting order.
func buildPlan(s *scenario.Scenario, o Options) []paramTry {
	var plan []paramTry
	perShrink := o.Budget / 8
	if perShrink < 4 {
		perShrink = 4
	}
	for i, sp := range o.ShrinkParams {
		for j := 0; j < perShrink; j++ {
			plan = append(plan, paramTry{p: sp, note: fmt.Sprintf("shrink[%d]", i)})
		}
	}
	full := s.DefaultParams.Clone(o.Params)
	for len(plan) < o.Budget {
		plan = append(plan, paramTry{p: full, note: "full"})
	}
	if len(plan) > o.Budget {
		plan = plan[:o.Budget]
	}
	for i := range plan {
		plan[i].idx = i
	}
	return prioritize(plan, o)
}

// prioritize applies static seeding: with lock-order suspects in hand and
// no forced schedule, visit the uniform-random candidates first and defer
// the PCT ones (stable partition — relative order within each class is
// preserved; see Options.Suspects for why random wins on ABBA windows).
// Candidate identity is keyed on paramTry.idx, so this changes only the
// visiting order.
func prioritize(plan []paramTry, o Options) []paramTry {
	if len(o.Suspects) == 0 || o.Schedule != nil {
		return plan
	}
	out := make([]paramTry, 0, len(plan))
	for _, pt := range plan {
		if !usesPCT(int64(pt.idx)) {
			out = append(out, pt)
		}
	}
	for _, pt := range plan {
		if usesPCT(int64(pt.idx)) {
			out = append(out, pt)
		}
	}
	return out
}

// runCandidate executes one candidate of the plan. Candidates are
// bit-deterministic functions of (scenario, options, pt.idx) and share no
// mutable state, which is what makes the search embarrassingly parallel.
// traced selects oracle-trace collection; it changes nothing else about
// the execution.
func runCandidate(s *scenario.Scenario, o Options, pt paramTry, traced bool) *scenario.RunView {
	i := int64(pt.idx)
	return s.Exec(scenario.ExecOptions{
		Seed:         o.BaseSeed + i,
		Params:       pt.p,
		Scheduler:    candidateScheduler(o, i),
		Inputs:       candidateInputs(s, o, pt.p, i),
		MaxSteps:     o.MaxSteps,
		DisableTrace: !traced,
	})
}

// Search runs candidate executions of s until accept returns true or the
// budget is exhausted.
//
// accept sees only what acceptance needs: the view's Machine, Result,
// Params and Seed. Its Trace may be nil — from-scratch candidates after
// the first two in plan order run without oracle-trace collection, which
// is most of a long search's allocation. The returned Outcome.View always
// carries its trace: an accepted trace-free candidate is executed once
// more with collection on, and since candidates are deterministic
// functions of their plan slot that execution is the accepted one,
// traced. The re-execution is not search work: Attempts, WorkCycles and
// WorkSteps do not count it. The first two candidates keep their trace
// because most failure searches accept one of them, and they then pay
// for no second run.
//
// With Workers > 1 candidates run concurrently, under a determinism
// contract that makes the parallel search indistinguishable from the
// sequential one: candidates keep their sequential indices, accept is
// invoked on the collector goroutine in strictly increasing index order
// (so accept needs no internal locking), the accepted candidate is the
// lowest-index accepted one, and Attempts/WorkCycles/WorkSteps count
// exactly the candidates at or before the accepted index. Workers may
// speculatively execute candidates beyond the eventually-accepted index;
// those executions are discarded unobserved, so their scheduling on the
// host has no effect on the Outcome.
func Search(s *scenario.Scenario, accept func(*scenario.RunView) bool, o Options) *Outcome {
	if err := o.Validate(); err != nil {
		return &Outcome{Err: err, Note: "invalid options"}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Budget == 0 {
		o.Budget = 200
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	plan := buildPlan(s, o)
	workers := o.Workers
	if workers > len(plan) {
		workers = len(plan)
	}
	if o.Fork {
		return searchForked(s, accept, o, plan, workers)
	}
	run := scratchRun(s, o, plan)
	if workers <= 1 {
		return searchSeq(s, accept, o, plan, run, &Outcome{})
	}
	return collectParallel(s, accept, o, plan, workers, run, &Outcome{})
}

// runFunc executes one candidate of the plan, returning the finished view
// and the steps and virtual cycles of work actually executed (whole-run
// totals for a from-scratch run; the executed suffix for a forked one).
type runFunc func(pt paramTry) (view *scenario.RunView, steps, cycles uint64)

// tracedCandidates is how many candidates, in plan order, keep their
// oracle trace (see Search).
const tracedCandidates = 2

// scratchRun runs candidates from scratch, collecting the oracle trace
// only for the first tracedCandidates in plan order.
func scratchRun(s *scenario.Scenario, o Options, plan []paramTry) runFunc {
	traced := make([]bool, len(plan)) // by candidate index
	for _, pt := range plan[:min(tracedCandidates, len(plan))] {
		traced[pt.idx] = true
	}
	return func(pt paramTry) (*scenario.RunView, uint64, uint64) {
		view := runCandidate(s, o, pt, traced[pt.idx])
		return view, view.Result.Steps, view.Result.Cycles
	}
}

// searchSeq is the reference implementation: one candidate at a time, in
// index order, accounting on top of whatever out already holds.
// collectParallel is defined to be outcome-equivalent to it.
func searchSeq(s *scenario.Scenario, accept func(*scenario.RunView) bool, o Options, plan []paramTry, run runFunc, out *Outcome) *Outcome {
	for _, pt := range plan {
		if err := o.Ctx.Err(); err != nil {
			out.Err = err
			out.Note = "search canceled"
			return out
		}
		view, steps, cycles := run(pt)
		out.count(steps, cycles)
		if accept(view) {
			return out.take(s, o, pt, view)
		}
	}
	out.Note = "budget exhausted"
	return out
}

// count accounts one attempted candidate.
func (out *Outcome) count(steps, cycles uint64) {
	out.Attempts++
	out.WorkCycles += cycles
	out.WorkSteps += steps
}

// take records pt's view as the accepted execution, re-executing a
// trace-free view with its trace (see Search).
func (out *Outcome) take(s *scenario.Scenario, o Options, pt paramTry, view *scenario.RunView) *Outcome {
	if view.Trace == nil {
		view = runCandidate(s, o, pt, true)
	}
	out.View = view
	out.Ok = true
	out.AcceptedParams = pt.p
	out.Note = fmt.Sprintf("%s attempt %d", pt.note, pt.idx)
	return out
}

// searchForked runs the search through a Forker; see Options.Fork. The
// sequential form grows the prefix forest as candidates complete. The
// parallel form executes the first candidate (the trunk) on the collector
// and freezes the forest before fanning the rest across the pool, so
// workers fork off a shared read-only trunk — keeping every count
// deterministic across worker schedules. Forked candidates always carry
// their trace: the forest is built from it.
func searchForked(s *scenario.Scenario, accept func(*scenario.RunView) bool, o Options, plan []paramTry, workers int) *Outcome {
	f := NewForker(ForkerConfig{
		Scenario: s,
		Interval: uint64(o.ForkInterval),
		MaxPaths: o.ForkPaths,
		MaxSteps: o.MaxSteps,
	})
	run := func(pt paramTry) (*scenario.RunView, uint64, uint64) {
		return f.Run(forkCandidate(s, o, pt))
	}
	if workers <= 1 {
		return searchSeq(s, accept, o, plan, run, &Outcome{})
	}
	out := searchSeq(s, accept, o, plan[:1], run, &Outcome{})
	if out.Ok || out.Err != nil {
		return out
	}
	f.Freeze()
	rest := plan[1:]
	if len(rest) == 0 {
		return out
	}
	if workers > len(rest) {
		workers = len(rest)
	}
	return collectParallel(s, accept, o, rest, workers, run, out)
}

// forkCandidate adapts a plan slot to the forker's candidate interface,
// preserving candidate identity: the same seed, scheduler and inputs
// runCandidate would construct for the slot.
func forkCandidate(s *scenario.Scenario, o Options, pt paramTry) Candidate {
	i := int64(pt.idx)
	return Candidate{
		Seed:      o.BaseSeed + i,
		Scheduler: func() vm.Scheduler { return candidateScheduler(o, i) },
		Inputs:    func() vm.InputSource { return candidateInputs(s, o, pt.p, i) },
		Params:    pt.p,
	}
}

// collectParallel is the shared parallel fan-out: candidates run on a
// worker pool, results fold back into out in strictly increasing index
// order (accept runs on the collector goroutine only), and accounting
// continues from whatever out already holds.
func collectParallel(s *scenario.Scenario, accept func(*scenario.RunView) bool, o Options, plan []paramTry, workers int, run runFunc, out *Outcome) *Outcome {
	type candResult struct {
		idx    int
		view   *scenario.RunView
		steps  uint64
		cycles uint64
	}
	idxCh := make(chan int)
	resCh := make(chan candResult, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Speculation window: the feeder may run at most this many candidates
	// ahead of the collector's cursor. Results hold finished machines (and
	// forked candidates their oracle traces), so an unbounded window would
	// let fast candidates pile up the whole budget in memory (and burn the
	// whole budget of CPU) while one slow early candidate blocks
	// consumption.
	window := 2 * workers
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	// Feeder: hands out candidate indices in order until the collector
	// accepts one (deterministic cancellation: only indices above the
	// accepted one can be cut off, and those are never accounted).
	go func() {
		defer close(idxCh)
		for i := range plan {
			select {
			case <-tokens:
			case <-stop:
				return
			case <-o.Ctx.Done():
				return
			}
			select {
			case idxCh <- i:
			case <-stop:
				return
			case <-o.Ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				view, steps, cycles := run(plan[i])
				select {
				case resCh <- candResult{idx: i, view: view, steps: steps, cycles: cycles}:
				case <-stop:
					return
				}
			}
		}()
	}

	// Collector: consume results in index order, calling accept exactly
	// as the sequential search would — same candidates, same order.
	pending := make(map[int]candResult, workers)
	cursor := 0
	for cursor < len(plan) {
		if err := o.Ctx.Err(); err != nil {
			close(stop)
			wg.Wait()
			out.Err = err
			out.Note = "search canceled"
			return out
		}
		cr, ok := pending[cursor]
		if !ok {
			select {
			case r := <-resCh:
				pending[r.idx] = r
			case <-o.Ctx.Done():
				// Loop around to the cancellation path above.
			}
			continue
		}
		delete(pending, cursor)
		tokens <- struct{}{} // consumed one: let the feeder dispatch one more
		pt := plan[cursor]
		cursor++
		out.count(cr.steps, cr.cycles)
		if accept(cr.view) {
			close(stop)
			wg.Wait()
			return out.take(s, o, pt, cr.view)
		}
	}
	close(stop)
	wg.Wait()
	out.Note = "budget exhausted"
	return out
}

// candidateScheduler picks the i-th candidate's scheduler: the forced
// schedule when one is recorded, otherwise alternating random and PCT
// search.
func candidateScheduler(o Options, i int64) vm.Scheduler {
	if o.Schedule != nil {
		return vm.NewReplayScheduler(o.Schedule)
	}
	seed := mix(o.BaseSeed, i)
	if usesPCT(i) {
		return vm.NewPCTScheduler(seed, 4096, 3)
	}
	return vm.NewRandomScheduler(seed)
}

// usesPCT reports whether candidate i uses the PCT scheduler: every third
// candidate, to reach low-probability orderings that uniform random
// sampling misses. prioritize keys static seeding on the same predicate.
func usesPCT(i int64) bool { return i%3 == 2 }

// candidateInputs builds the i-th candidate's input source: forced
// recorded streams over a searched base.
func candidateInputs(s *scenario.Scenario, o Options, p scenario.Params, i int64) vm.InputSource {
	base := s.SearchSource(mix(o.BaseSeed, i*7919+13), p)
	if len(o.ForcedInputs) == 0 {
		return base
	}
	return &vm.MapInputs{Values: o.ForcedInputs, Base: base}
}

// mix combines two seeds into one (splitmix-style).
func mix(a, b int64) int64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return int64(h &^ (1 << 63))
}
