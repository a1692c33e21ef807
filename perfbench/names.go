package main

// sizes are the input sizes of a run.
type sizes struct {
	corpusScenarios  int   // corpus scenarios per pass (0 = all)
	sessionTransfers int64 // bank transfers of the debug-session recording
	repositions      int   // debug-session repositions per pass
	interval         int64 // checkpoint and flight-recorder interval, events
	soakTransfers    int64 // bank transfers of a soak run
	soakRounds       int64 // dynokv-staleread rounds of a soak run
	setupReps        int   // set-ups per run (setup_s is their median)
	minPasses        int   // passes per run, however short the time
}

var (
	fullSizes = sizes{
		sessionTransfers: 2000, repositions: 150, interval: 1024,
		soakTransfers: 1000, soakRounds: 12, setupReps: 3, minPasses: 3,
	}
	tinySizes = sizes{
		corpusScenarios: 2, sessionTransfers: 60, repositions: 12, interval: 64,
		soakTransfers: 40, soakRounds: 2, setupReps: 2, minPasses: 2,
	}
)

// layerNames are the per-layer metrics of a traced run, in the order
// BENCHMARK.json lists them. The first figures of each group are the
// workload-specific end-to-end figures, reported here by name.
var layerNames = []string{
	// corpus-eval
	"corpus_pass_s",
	"infer.attempts.perfect", "infer.attempts.value", "infer.attempts.output",
	"infer.attempts.failure", "infer.attempts.debug-rcse",
	"infer.worksteps.perfect", "infer.worksteps.value", "infer.worksteps.output",
	"infer.worksteps.failure", "infer.worksteps.debug-rcse",
	"infer.accepted_share", "infer.ns_per_workstep",
	"core.prepare_share", "core.record_share", "core.replay_share",

	// debug-session
	"open_ms", "seek_ms_p50", "seek_ms_p99", "replay_full_ms",
	"replay.seek_fallbacks",
	"checkpoint.restore_ms", "checkpoint.restore_feed_events",
	"replay.seek_suffix_events", "replay.seek_suffix_ns_per_event",
	"replay.perfect_ns_per_event",
	"codec.save_ns_per_event", "codec.load_ns_per_event", "codec.bytes_per_event",

	// record-soak
	"rec_us_per_event.perfect", "rec_us_per_event.value", "rec_us_per_event.output",
	"rec_us_per_event.failure", "rec_us_per_event.debug-rcse", "rec_us_per_event.flightrec",
	"log_bytes_per_event.debug-rcse", "rcse.full_event_share",
	"vm.ns_per_event", "vm.trace_ns_per_event",
	"record.ns_per_event.perfect", "record.alloc_bytes_per_event.perfect", "bench.unattributed_share.perfect",
	"record.ns_per_event.value", "record.alloc_bytes_per_event.value", "bench.unattributed_share.value",
	"record.ns_per_event.output", "record.alloc_bytes_per_event.output", "bench.unattributed_share.output",
	"record.ns_per_event.failure", "record.alloc_bytes_per_event.failure", "bench.unattributed_share.failure",
	"record.ns_per_event.debug-rcse", "record.alloc_bytes_per_event.debug-rcse", "bench.unattributed_share.debug-rcse",
	"bench.unattributed_share",
	"record.overhead_measured.perfect.bank", "record.overhead_modeled.perfect.bank",
	"record.overhead_measured.value.bank", "record.overhead_modeled.value.bank",
	"record.overhead_measured.output.bank", "record.overhead_modeled.output.bank",
	"record.overhead_measured.failure.bank", "record.overhead_modeled.failure.bank",
	"record.overhead_measured.debug-rcse.bank", "record.overhead_modeled.debug-rcse.bank",
	"record.overhead_measured.perfect.dynokv-staleread", "record.overhead_modeled.perfect.dynokv-staleread",
	"record.overhead_measured.value.dynokv-staleread", "record.overhead_modeled.value.dynokv-staleread",
	"record.overhead_measured.output.dynokv-staleread", "record.overhead_modeled.output.dynokv-staleread",
	"record.overhead_measured.failure.dynokv-staleread", "record.overhead_modeled.failure.dynokv-staleread",
	"record.overhead_measured.debug-rcse.dynokv-staleread", "record.overhead_modeled.debug-rcse.dynokv-staleread",
	"rcse.prepare_ms",
	"checkpoint.capture_us_per_snapshot", "checkpoint.bytes_per_snapshot",
	"flightrec.ns_per_event", "flightrec.peak_mem_bytes", "flightrec.spilled_segments",
	"flightrec.open_ms", "flightrec.tail_seek_ms",

	// the run
	"gc.cycles", "gc.pause_ms_total", "bench.trace_overhead", "error_rate",
}
