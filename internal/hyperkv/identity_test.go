package hyperkv_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/hyperkv"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
)

// TestPredicatesSeeRunIdentity pins that the root-cause predicates judge
// a run by its own cluster configuration whichever constructor built its
// view. Flight-recorded views carry no trace, and seek-session views
// carry no trace header parameters; predicates that read the
// configuration from the trace header silently fell back to the default
// cluster on both, reporting, for example, a migration race with rows
// "lost" that the smaller cluster never had.
func TestPredicatesSeeRunIdentity(t *testing.T) {
	s := hyperkv.Scenario()
	params := []scenario.Params{{"rows": 4}, {"servers": 4}, {"ranges": 3}, {"rows": 32}}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		params, seeds = params[:2], seeds[:2]
	}
	for _, p := range params {
		for _, seed := range seeds {
			want := s.Exec(scenario.ExecOptions{Seed: seed, Params: p})
			wantFailed, wantSig := s.CheckFailure(want)
			wantCauses := s.PresentCauses(want)
			check := func(how string, v *scenario.RunView) {
				t.Helper()
				if v.Seed != seed || !reflect.DeepEqual(v.Params, s.DefaultParams.Clone(p)) {
					t.Errorf("%s %v seed %d: view identity is seed %d params %v", how, p, seed, v.Seed, v.Params)
				}
				failed, sig := s.CheckFailure(v)
				causes := s.PresentCauses(v)
				if failed != wantFailed || sig != wantSig || !reflect.DeepEqual(causes, wantCauses) {
					t.Errorf("%s %v seed %d: failure %v/%q causes %v, Exec says %v/%q causes %v",
						how, p, seed, failed, sig, causes, wantFailed, wantSig, wantCauses)
				}
			}

			fr, err := flightrec.Record(s, seed, p, flightrec.Options{
				SpillDir: filepath.Join(t.TempDir(), "spill"),
			})
			if err != nil {
				t.Fatalf("flight record %v seed %d: %v", p, seed, err)
			}
			check("flight-recorded", fr.View)

			rec, _, err := record.Record(s, record.Perfect, seed, p)
			if err != nil {
				t.Fatalf("record %v seed %d: %v", p, seed, err)
			}
			sess, err := replay.Seek(s, rec, rec.EventCount/2, replay.Options{})
			if err != nil {
				t.Fatalf("seek %v seed %d: %v", p, seed, err)
			}
			view, ok := sess.RunToEnd()
			if !ok {
				t.Fatalf("seek %v seed %d: replay did not reproduce the run", p, seed)
			}
			check("seek-session", view)
		}
	}
}
