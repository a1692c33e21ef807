package eval

import (
	"fmt"
	"strings"

	"debugdet/internal/core"
	"debugdet/internal/infer"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// T-FORK measures checkpoint-forked candidate execution (infer.Forker)
// on two search shapes:
//
//   - search: the Fig1-class model reconstructions (output- and
//     failure-determinism replay), whose candidates explore free
//     schedules. These diverge at their first scheduling pick, so forking
//     cannot share work — the rows pin that it never *adds* work.
//   - sweep: the T-TRIG/RCSE-class data-plane sensitivity sweep (§3.1):
//     the recorded schedule and control-plane inputs are forced, and the
//     budget re-executes the run across data seeds to confirm unrecorded
//     data does not steer the outcome. Candidates share the whole forced
//     prefix up to their first differing data draw; on control-only
//     scenarios (bank) every candidate is equivalent and forking prunes
//     the sweep to a single execution.
var forkCases = []struct {
	Scenario string
	Shape    string       // "search" or "sweep"
	Model    record.Model // the recording model for search rows
}{
	{"bank", "sweep", record.Perfect},
	{"overflow", "sweep", record.Perfect},
	{"msgdrop", "sweep", record.Perfect},
	{"msgdrop", "search", record.Output},
	{"overflow", "search", record.Failure},
}

// forkSearchSeeds are the inference seeds T-FORK aggregates over,
// mirroring statSearchSeeds: a handful of trajectories show the expected
// saving rather than a lucky draw.
var forkSearchSeeds = []int64{7, 8, 9, 10}

// forkSweepBudget is the number of data seeds each sensitivity sweep
// covers per search seed.
const forkSweepBudget = 40

// ForkRow is one T-FORK measurement: the same search with and without
// checkpoint-forked candidate execution.
type ForkRow struct {
	Scenario string
	Shape    string
	// BaseAttempts/ForkAttempts count candidate executions per mode,
	// summed over forkSearchSeeds. The fork-equivalence contract demands
	// they be equal: forking changes what each attempt costs, never which
	// attempt is accepted.
	BaseAttempts int
	ForkAttempts int
	// BaseWorkSteps/ForkWorkSteps total the events executed across all
	// attempts — the debugging-efficiency denominator forking shrinks.
	BaseWorkSteps uint64
	ForkWorkSteps uint64
	// Identical reports that for every search seed both modes produced
	// the bit-identical outcome: same acceptance, same note, and (when a
	// candidate was accepted) the same event stream.
	Identical bool
}

// Saving is the work-reduction factor (scratch worksteps over forked).
func (r ForkRow) Saving() float64 {
	if r.ForkWorkSteps == 0 {
		return 0
	}
	return float64(r.BaseWorkSteps) / float64(r.ForkWorkSteps)
}

// TableFork runs T-FORK: each case twice per search seed — from scratch
// and with infer.Options.Fork enabled — comparing outcomes, attempts and total search
// work.
func TableFork(o Options) ([]ForkRow, error) {
	o = o.withDefaults()
	rows := make([]ForkRow, len(forkCases))
	err := runGrid(o.Ctx, len(rows), o.Workers, func(i int) error {
		tc := forkCases[i]
		s, err := workload.ByName(tc.Scenario)
		if err != nil {
			return err
		}
		switch tc.Shape {
		case "sweep":
			rows[i], err = forkSweepRow(s, o)
		default:
			rows[i], err = forkSearchRow(s, tc.Model, o)
		}
		if err != nil {
			return fmt.Errorf("fork %s/%s: %w", tc.Scenario, tc.Shape, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// forkSearchRow measures a Fig1-class model reconstruction: the
// inference search that replay.Replay runs for the recording
// (replay.SearchConfig), with and without forking.
func forkSearchRow(s *scenario.Scenario, model record.Model, o Options) (ForkRow, error) {
	rec, _, _, err := core.RecordOnly(s, model, core.Options{Ctx: o.Ctx})
	if err != nil {
		return ForkRow{}, err
	}
	row := ForkRow{Scenario: s.Name, Shape: "search", Identical: true}
	for _, seed := range forkSearchSeeds {
		accept, io, err := replay.SearchConfig(s, rec, replay.Options{
			Ctx:        o.Ctx,
			Budget:     o.ReplayBudget,
			SearchSeed: seed,
			Workers:    1,
		})
		if err != nil {
			return row, err
		}
		base := infer.Search(s, accept, io)
		io.Fork = true
		fork := infer.Search(s, accept, io)
		if base.Err != nil {
			return row, base.Err
		}
		if fork.Err != nil {
			return row, fork.Err
		}
		if !base.Ok || !fork.Ok {
			return row, fmt.Errorf("seed %d: search failed (base %q, fork %q)", seed, base.Note, fork.Note)
		}
		row.BaseAttempts += base.Attempts
		row.ForkAttempts += fork.Attempts
		row.BaseWorkSteps += base.WorkSteps
		row.ForkWorkSteps += fork.WorkSteps
		row.Identical = row.Identical && base.Note == fork.Note &&
			trace.EventsEqual(base.View.Trace, fork.View.Trace, false)
	}
	return row, nil
}

// forkSweepRow measures the RCSE-class data-plane sensitivity sweep: the
// recorded schedule and control-plane inputs are forced, and the sweep
// budget re-executes the run across data seeds. The accept callback
// rejects everything so that every candidate runs — a real sweep inspects
// each view for outcome drift; the work cost is the same.
func forkSweepRow(s *scenario.Scenario, o Options) (ForkRow, error) {
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	forced := make(map[string][]trace.Value, len(s.ControlStreams))
	for _, cs := range s.ControlStreams {
		forced[cs] = v.Result.InputsUsed[cs]
	}
	reject := func(*scenario.RunView) bool { return false }
	row := ForkRow{Scenario: s.Name, Shape: "sweep", Identical: true}
	for _, seed := range forkSearchSeeds {
		io := infer.Options{
			Ctx:          o.Ctx,
			Budget:       forkSweepBudget,
			BaseSeed:     seed,
			Workers:      1,
			Schedule:     v.Trace.Schedule(),
			ForcedInputs: forced,
		}
		base := infer.Search(s, reject, io)
		io.Fork = true
		fork := infer.Search(s, reject, io)
		if base.Err != nil {
			return row, base.Err
		}
		if fork.Err != nil {
			return row, fork.Err
		}
		row.BaseAttempts += base.Attempts
		row.ForkAttempts += fork.Attempts
		row.BaseWorkSteps += base.WorkSteps
		row.ForkWorkSteps += fork.WorkSteps
		row.Identical = row.Identical &&
			base.Ok == fork.Ok && base.Note == fork.Note && base.Attempts == fork.Attempts
	}
	return row, nil
}

// RenderTableFork prints T-FORK.
func RenderTableFork(rows []ForkRow) string {
	var b strings.Builder
	b.WriteString("Table FORK — checkpoint-forked candidate execution vs from-scratch search\n")
	b.WriteString("(identical = forked search produced the bit-identical outcome;\n")
	b.WriteString(" sweep = forced schedule + control inputs across data seeds, §3.1)\n\n")
	fmt.Fprintf(&b, "%-12s %-8s %14s %20s %8s %10s\n",
		"scenario", "shape", "attempts", "worksteps", "saving", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-8s %6d -> %5d %9d -> %8d %7.1fx %10v\n",
			r.Scenario, r.Shape,
			r.BaseAttempts, r.ForkAttempts,
			r.BaseWorkSteps, r.ForkWorkSteps, r.Saving(), r.Identical)
	}
	return b.String()
}
