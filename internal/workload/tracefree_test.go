package workload

import (
	"reflect"
	"testing"

	"debugdet/internal/progen"
	"debugdet/internal/scenario"
)

// TestAcceptanceNeedsNoTrace pins the contract trace-free search
// candidates rest on: a scenario's failure check and root-cause
// predicates decide from the view's machine, result and run identity
// alone, so a run without oracle-trace collection is judged exactly like
// the same run with it. It covers the whole corpus, every fixed variant
// and generated programs of every progen family, at several seeds.
func TestAcceptanceNeedsNoTrace(t *testing.T) {
	type run struct {
		s      *scenario.Scenario
		seed   int64
		params scenario.Params
	}
	seeds := []int64{1, 2, 3, 7}
	gens := 10
	if testing.Short() {
		seeds, gens = seeds[:2], 5
	}
	var runs []run
	for _, s := range append(All(), Variants()...) {
		runs = append(runs, run{s, s.DefaultSeed, nil})
		for _, seed := range seeds {
			runs = append(runs, run{s, seed, nil})
		}
	}
	for g := 0; g < gens; g++ {
		p := progen.ForSeed(int64(g))
		runs = append(runs, run{p.Scenario, p.Seed, p.Params})
	}
	for _, r := range runs {
		traced := r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params})
		bare := r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params, DisableTrace: true})
		if bare.Trace != nil {
			t.Fatalf("%s seed %d: DisableTrace run has a trace", r.s.Name, r.seed)
		}
		tf, ts := r.s.CheckFailure(traced)
		bf, bs := r.s.CheckFailure(bare)
		if tf != bf || ts != bs {
			t.Errorf("%s %v seed %d: failure %v/%q traced, %v/%q trace-free", r.s.Name, r.params, r.seed, tf, ts, bf, bs)
		}
		if tc, bc := r.s.PresentCauses(traced), r.s.PresentCauses(bare); !reflect.DeepEqual(tc, bc) {
			t.Errorf("%s %v seed %d: causes %v traced, %v trace-free", r.s.Name, r.params, r.seed, tc, bc)
		}
		tr, br := *traced.Result, *bare.Result
		tr.Trace = nil
		if !reflect.DeepEqual(tr, br) {
			t.Errorf("%s %v seed %d: result differs with trace collection off:\ntraced %+v\nbare   %+v",
				r.s.Name, r.params, r.seed, tr, br)
		}
	}
}
