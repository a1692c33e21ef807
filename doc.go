// Package debugdet is a replay-debugging SDK built around the debug
// determinism model of Zamfir, Altekar, Candea and Stoica, "Debug
// Determinism: The Sweet Spot for Replay-Based Debugging" (HotOS 2011).
//
// The library implements the full determinism-relaxation spectrum the
// paper surveys — perfect, value (iDNA), output (ODR), failure (ESD) — and
// the paper's proposal: debug determinism achieved through root
// cause-driven selectivity (RCSE), which records the portions of an
// execution likely to contain a future failure's root cause at full
// fidelity while relaxing everything else. It also implements the §3.2
// debugging-utility metrics (fidelity, efficiency, utility) and ships the
// scenario corpus the paper discusses, including a Hypertable-like
// distributed key-value store with the issue-63 data-loss race of the §4
// case study and a Dynamo-style quorum-replicated KV cluster.
//
// # The SDK
//
// Debug determinism is a property developers dial in for their own
// systems, so the workload-authoring surface is public:
//
//   - debugdet/sim — the deterministic virtual machine: threads, cells,
//     locks, channels, streams and the simulated network. Programs
//     written against its Thread API are bit-reproducible from a seed.
//   - debugdet/scen — the scenario contract: program, environment,
//     failure specification, root causes; plus the Registry that catalogs
//     scenarios by name.
//   - debugdet/trace — the event model, values and codecs everything
//     shares.
//
// This root package ties them together as an Engine: a registry of
// scenarios (built-ins pre-registered) with context-aware
// record/replay/evaluate methods and a streaming batch evaluator.
//
// # Quick start
//
//	eng := debugdet.New()
//	s, _ := eng.ByName("overflow")
//	ev, _ := eng.Evaluate(context.Background(), s, debugdet.Perfect, debugdet.Options{})
//	fmt.Println(ev.Summary())
//
// Author a scenario of your own against sim/scen, eng.Register it, and
// every determinism model can record, replay and evaluate it — see
// Example_customScenario and the examples directory for complete
// programs, and DESIGN.md for the architecture and the experiment index.
//
// Architecture: DESIGN.md §0 (SDK layering) describes how this package,
// debugdet/sim, debugdet/scen, debugdet/trace and debugdet/figures fit
// together; DESIGN.md §5 covers the time-travel replay surface
// (Engine.Seek, Engine.ReplaySegmented, Engine.Debug), each over a
// SegmentStore: RecordingStore for a recording, OpenSegmentStore for a
// flight recorder's spill directory.
package debugdet
