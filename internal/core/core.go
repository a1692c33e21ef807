// Package core orchestrates the full record → replay → evaluate pipeline:
// the paper's experimental loop. Given a scenario and a determinism model
// it produces one Evaluation — the recorded artifact, the replayed
// execution, and the §3.2 metrics (debugging fidelity, debugging
// efficiency, debugging utility) together with the recording overhead and
// log volume.
//
// For the debug-determinism model the pipeline also performs the RCSE
// preparation the paper describes: a profiling run classifies sites into
// control and data plane (code-based selection), training runs infer
// invariants (data-based selection), and the race-detector trigger is
// armed (combined selection). All of that happens before the "production"
// run that gets recorded.
package core

import (
	"context"
	"fmt"

	"debugdet/internal/checkpoint"
	"debugdet/internal/flightrec"
	"debugdet/internal/invariant"
	"debugdet/internal/lint/sites"
	"debugdet/internal/metrics"
	"debugdet/internal/plane"
	"debugdet/internal/rcse"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// RCSEOptions selects which RCSE heuristics are armed for a
// debug-determinism recording.
type RCSEOptions struct {
	// CodeSelection classifies sites from a profiling run and records
	// control-plane sites fully (§3.1.1). On by default (disable only
	// for ablations).
	DisableCodeSelection bool
	// RaceTrigger arms the sampling race detector (§3.1.3).
	RaceTrigger bool
	// RaceSampleRate is the detector's access sampling rate (default 4).
	RaceSampleRate uint64
	// InvariantTrigger trains invariants on healthy runs and arms the
	// monitor (§3.1.2).
	InvariantTrigger bool
	// TrainingRuns is the number of healthy executions to train
	// invariants on (default 3).
	TrainingRuns int
	// QuietPeriod dials triggers down after this many quiet events
	// (default 2000; 0 keeps them up forever).
	QuietPeriod uint64
	// Thresholds adds custom predicate triggers.
	Thresholds []*rcse.ThresholdSelector
}

// Options parameterizes one evaluation.
type Options struct {
	// Ctx cancels the evaluation at phase boundaries and between
	// candidate executions of the replay-inference pool (nil =
	// context.Background()). A canceled evaluation returns the context
	// error.
	Ctx context.Context
	// Seed identifies the production run to record.
	Seed int64
	// Params override scenario defaults.
	Params scenario.Params
	// ProfileSeed drives the RCSE profiling run (default Seed+101).
	ProfileSeed int64
	// ReplayBudget bounds inference attempts (default 200).
	ReplayBudget int
	// SearchSeed perturbs inference randomness (default 7).
	SearchSeed int64
	// ShrinkParams lets failure-determinism replay synthesize shorter
	// executions (ESD).
	ShrinkParams []scenario.Params
	// RCSE configures the debug-determinism heuristics.
	RCSE RCSEOptions
	// MaxSteps bounds every execution (0 = VM default).
	MaxSteps uint64
	// CheckpointInterval captures a VM state snapshot into the recording
	// every that many events, enabling checkpointed seek and segmented
	// parallel replay on the recording. Zero means off — no checkpoints
	// are captured, and seek falls back to replaying from the start.
	// Negative values are rejected with an error rather than silently
	// disabling checkpoints. Checkpoints need the complete event stream,
	// so the interval only applies to the perfect model; other models
	// ignore it. Capture work is charged to the recording overhead like
	// any other recording work.
	CheckpointInterval int64
	// Workers sets the replay-inference worker-pool size (0 =
	// GOMAXPROCS, 1 = sequential; negative rejected). The evaluation
	// result is identical for every worker count.
	Workers int
	// FlightRecorder configures RecordStreaming's always-on bounded-memory
	// recording: the spill directory, the in-memory ring size and the
	// on-disk retention cap. Only RecordStreaming reads it; Record and
	// Evaluate build monolithic recordings and ignore it.
	FlightRecorder *flightrec.Options
	// Suspects are statically implicated lock-order inversions (detlint's
	// lockorder analysis via sites.Triage). They seed failure-determinism
	// replay search (PCT candidates first; see infer.Options.Suspects)
	// and arm the RCSE suspect selector for debug-determinism recordings.
	Suspects []sites.Suspect
}

// validate rejects option values that would otherwise be silently
// reinterpreted. The replay-facing knobs (Workers, ReplayBudget)
// delegate to replay.Options.Validate, so the SDK surface rejects the
// same domains the engine does.
func (o Options) validate() error {
	if o.CheckpointInterval < 0 {
		return fmt.Errorf("core: Options.CheckpointInterval must not be negative (got %d; use 0 to disable checkpoints)", o.CheckpointInterval)
	}
	if err := o.replayOptions().Validate(); err != nil {
		return err
	}
	if o.FlightRecorder != nil {
		if err := o.FlightRecorder.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// replayOptions assembles the replay configuration the evaluation uses.
func (o Options) replayOptions() replay.Options {
	return replay.Options{
		Ctx:          o.Ctx,
		Budget:       o.ReplayBudget,
		SearchSeed:   o.SearchSeed,
		ShrinkParams: o.ShrinkParams,
		MaxSteps:     o.MaxSteps,
		Workers:      o.Workers,
		Suspects:     o.Suspects,
	}
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.ProfileSeed == 0 {
		o.ProfileSeed = o.Seed + 101
	}
	if o.ReplayBudget == 0 {
		o.ReplayBudget = 200
	}
	if o.SearchSeed == 0 {
		o.SearchSeed = 7
	}
	if o.RCSE.RaceSampleRate == 0 {
		o.RCSE.RaceSampleRate = 4
	}
	if o.RCSE.TrainingRuns == 0 {
		o.RCSE.TrainingRuns = 3
	}
	if o.RCSE.QuietPeriod == 0 {
		o.RCSE.QuietPeriod = 2000
	}
	return o
}

// Evaluation is the complete result of one (scenario, model) cell.
type Evaluation struct {
	Scenario  string
	Model     record.Model
	Seed      int64
	Recording *record.Recording
	Orig      *scenario.RunView
	Replay    *replay.Result
	Fidelity  metrics.Fidelity
	Utility   metrics.Utility

	// Overhead and LogBytes restate the recording's production cost.
	Overhead float64
	LogBytes int64

	// RCSESetup exposes trigger statistics for RCSE runs (nil otherwise).
	RCSESetup *rcse.Setup
}

// Summary renders the evaluation as one report line.
func (e *Evaluation) Summary() string {
	return fmt.Sprintf("%-18s %-10s overhead=%5.2fx bytes=%8d DF=%.3f DE=%7.3f DU=%7.3f attempts=%d",
		e.Scenario, e.Model, e.Overhead, e.LogBytes,
		e.Utility.DF, e.Utility.DE, e.Utility.DU, e.Replay.Attempts)
}

// RecordOnly runs the scenario once under the model's recorder — the
// "production run" of the pipeline — and returns the recording with the
// original run. For DebugRCSE it first performs the RCSE preparation the
// paper describes (profiling, training, trigger arming) according to
// o.RCSE, and additionally returns the armed setup for trigger
// statistics (nil for the other models).
func RecordOnly(s *scenario.Scenario, model record.Model, o Options) (*record.Recording, *scenario.RunView, *rcse.Setup, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, nil, nil, err
	}
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	var factory record.PolicyFactory
	var setup *rcse.Setup
	switch model {
	case record.DebugRCSE:
		cfg, err := PrepareRCSE(s, o)
		if err != nil {
			return nil, nil, nil, err
		}
		factory = func(m *vm.Machine) (record.Policy, []vm.Observer) {
			setup = cfg.Build(m)
			return setup.Policy, setup.Observers
		}
	default:
		policy := record.PolicyFor(model)
		if policy == nil {
			return nil, nil, nil, fmt.Errorf("core: no stock policy for %s", model)
		}
		factory = record.FactoryFor(policy)
	}

	var ckpt *checkpoint.Writer
	if o.CheckpointInterval > 0 && model == record.Perfect {
		inner := factory
		factory = func(m *vm.Machine) (record.Policy, []vm.Observer) {
			policy, obs := inner(m)
			ckpt = checkpoint.NewWriter(m, uint64(o.CheckpointInterval))
			return policy, append(obs, ckpt)
		}
	}

	rec, orig, err := record.RecordWithPolicy(s, model, factory, o.Seed, o.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	if ckpt != nil {
		// The capture work already entered the machine's recording cycles
		// (and hence rec.Overhead); attach the artifacts and their volume.
		rec.Checkpoints = ckpt.Snapshots()
		rec.CheckpointBytes = ckpt.Bytes()
	}
	return rec, orig, setup, nil
}

// RecordStreaming runs the scenario once with the flight recorder
// attached: an always-on, bounded-memory production run whose segments
// rotate through a fixed-size ring and spill to o.FlightRecorder.SpillDir,
// instead of accumulating a monolithic in-memory Recording. The run is
// always a perfect-model recording — streaming needs the complete event
// stream, and the spill directory replays through the same seek, segmented
// and debug paths as a checkpointed recording.
//
// The rotation interval is o.FlightRecorder.Interval; when zero it falls
// back to o.CheckpointInterval, then to the checkpoint default.
func RecordStreaming(s *scenario.Scenario, o Options) (*flightrec.RecordResult, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}
	if o.FlightRecorder == nil || o.FlightRecorder.SpillDir == "" {
		return nil, fmt.Errorf("core: streaming recording needs Options.FlightRecorder with a SpillDir")
	}
	fo := *o.FlightRecorder
	if fo.Interval == 0 && o.CheckpointInterval > 0 {
		fo.Interval = uint64(o.CheckpointInterval)
	}
	return flightrec.Record(s, o.Seed, o.Params, fo)
}

// Evaluate runs the full pipeline for one scenario under one model.
func Evaluate(s *scenario.Scenario, model record.Model, o Options) (*Evaluation, error) {
	o = o.withDefaults()
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}

	rec, orig, setup, err := RecordOnly(s, model, o)
	if err != nil {
		return nil, err
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}

	rep := replay.Replay(s, rec, o.replayOptions())
	if rep.Err != nil {
		return nil, rep.Err
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}

	var repView *scenario.RunView
	if rep.Ok {
		repView = rep.View
	}
	fid := metrics.ComputeFidelity(s, orig, repView)
	// DE's numerator is the original's intrinsic duration; its
	// denominator is everything the tool executed to produce the replay.
	// Both are measured in events, not cycles: the virtual clock jumps
	// over idle waits, which replays legitimately skip, and counting
	// those jumps would inflate DE for no analysis work.
	de := metrics.Efficiency(orig.Result.Steps, rep.WorkSteps)
	if repView == nil {
		de = 0
	}

	return &Evaluation{
		Scenario:  s.Name,
		Model:     model,
		Seed:      o.Seed,
		Recording: rec,
		Orig:      orig,
		Replay:    rep,
		Fidelity:  fid,
		Utility:   metrics.ComputeUtility(fid, de),
		Overhead:  rec.Overhead,
		LogBytes:  rec.LogBytes,
		RCSESetup: setup,
	}, nil
}

// PrepareRCSE performs the before-production steps of root cause-driven
// selectivity: profiling for plane classification and training for
// invariants. The returned config builds the policy for the recording
// machine.
func PrepareRCSE(s *scenario.Scenario, o Options) (rcse.Config, error) {
	o = o.withDefaults()
	cfg := rcse.Config{
		ControlStreams: s.ControlStreams,
		QuietPeriod:    o.RCSE.QuietPeriod,
		Thresholds:     o.RCSE.Thresholds,
		Suspects:       o.Suspects,
	}
	if !o.RCSE.DisableCodeSelection {
		if err := o.Ctx.Err(); err != nil {
			return cfg, err
		}
		prof := s.Exec(scenario.ExecOptions{Seed: o.ProfileSeed, Params: o.Params})
		if prof.Trace == nil {
			return cfg, fmt.Errorf("core: profiling run produced no trace")
		}
		cfg.Classification = plane.ClassifyTrace(prof.Trace, plane.Options{})
	}
	if o.RCSE.RaceTrigger {
		cfg.RaceSampleRate = o.RCSE.RaceSampleRate
		cfg.RaceCheckCost = 2
	}
	if o.RCSE.InvariantTrigger {
		inf := invariant.NewInferencer()
		trainParams := s.DefaultParams.Clone(o.Params).Clone(s.TrainingParams)
		for i := 0; i < o.RCSE.TrainingRuns; i++ {
			if err := o.Ctx.Err(); err != nil {
				return cfg, err
			}
			v := s.Exec(scenario.ExecOptions{Seed: o.ProfileSeed + 1 + int64(i), Params: trainParams})
			if v.Trace != nil {
				inf.AddTrace(v.Trace)
			}
		}
		cfg.Invariants = inf.Infer()
		cfg.InvariantCost = 2
	}
	return cfg, nil
}
