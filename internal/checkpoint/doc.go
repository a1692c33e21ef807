// Package checkpoint implements time-travel support for recorded
// executions (DESIGN.md §5): periodic deterministic snapshots of VM state
// captured while a run is recorded or replayed, a binary codec that
// persists them inside the .ddrc recording format, and the restore index
// (Index) that lets vm.Restore rebuild a machine mid-trace from a
// snapshot plus the recorded event prefix: one pass over a run's events
// yields every snapshot's feeds and stream histories, plus the schedule
// and recorded inputs, for the .ddrc loader, both flight-recorder stores
// and the forker alike.
//
// Checkpoints are what make replay latency independent of where in a long
// trace the developer wants to look: seeking to event k costs one restore
// (cheap feed replay of each thread, no scheduling) plus a scheduled
// replay of at most one checkpoint interval, instead of a full replay of
// k events. The same machinery partitions a trace into segments that
// replay and validate concurrently (replay.Segmented).
//
// Checkpoints require complete knowledge of the prefix — every event with
// its value — so they are captured for perfect-determinism recordings;
// relaxed models fall back to replay-from-start seeks.
package checkpoint
