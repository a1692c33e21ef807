package flightrec

import (
	"bytes"
	"testing"

	"debugdet/internal/record"
	"debugdet/internal/workload"
)

// TestRecordingStoresShareLoadedIndex pins one restore index per
// recording: Load builds it to rehydrate the checkpoints, and a store
// opened over the loaded recording afterwards builds none of its own, so
// opening a store and restoring feeds allocates only what the store and
// the feeds themselves need.
func TestRecordingStoresShareLoadedIndex(t *testing.T) {
	var buf bytes.Buffer
	if err := recordCheckpointed(t, workload.Bank(), 64).Save(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := record.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Checkpoints[len(rec.Checkpoints)-1]
	first := NewRecordingStore(rec)
	if _, err := first.Feeds(snap); err != nil {
		t.Fatal(err)
	}
	feeds := testing.AllocsPerRun(5, func() { first.Feeds(snap) })
	open := testing.AllocsPerRun(5, func() { NewRecordingStore(rec) })
	second := testing.AllocsPerRun(5, func() { NewRecordingStore(rec).Feeds(snap) })
	if second > open+feeds {
		t.Fatalf("opening a store and restoring feeds took %.0f allocations, want at most %.0f (open) + %.0f (feeds): the store rebuilt the restore index",
			second, open, feeds)
	}
}
