// The observability event model (obs/).
//
// Every subsystem narrates its behavior as a stream of typed events: spans
// (an interval with a begin and an end, correlated by id), instants (a point
// occurrence), and counters (a sampled value).  Events carry the engine's
// virtual timestamp — SimEngine's deterministic clock, so two runs with the
// same seed produce the same stream — plus an optional wall-clock timestamp
// for the real-parallelism engines, where virtual time does not exist.
//
// Event names form a fixed taxonomy (docs/OBSERVABILITY.md): dotted,
// lower-case, rooted at the emitting subsystem ("task.body_start",
// "net.xfer", "store.move", "sched.place", "ft.crash").  Names are static
// string literals so recording an event never allocates for the name.
#pragma once

#include <cstdint>
#include <string>

#include "jade/support/time.hpp"

namespace jade::obs {

enum class EventKind : std::uint8_t {
  kSpanBegin,  ///< interval opens (matched to kSpanEnd by (cat, name, id))
  kSpanEnd,    ///< interval closes
  kInstant,    ///< point event
  kCounter,    ///< sampled value (`value` field)
};

/// The emitting subsystem — the Chrome exporter's category, and the prefix
/// convention for metric names.
enum class Subsystem : std::uint8_t {
  kEngine,  ///< task lifecycle, throttling, inlining
  kNet,     ///< interconnect models (send/deliver/drop/retransmit)
  kStore,   ///< object directory + local stores (fetch/replicate/invalidate)
  kSched,   ///< placement decisions
  kFt,      ///< fault injection & recovery
  kApp,     ///< application-level events (benches, examples)
};

const char* subsystem_name(Subsystem cat);

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  Subsystem cat = Subsystem::kEngine;
  /// Event type from the taxonomy.  Must point at static storage.
  const char* name = "";
  /// Correlation id: task id for task spans, a per-model message sequence
  /// number for network spans, the ObjectId for store events.
  std::uint64_t id = 0;
  /// Machine the event is attributed to (-1: no machine, e.g. host-side).
  MachineId machine = -1;
  /// Virtual time (SimEngine) or the engine's logical/wall clock, seconds.
  SimTime ts = 0;
  /// Counter value, span payload (e.g. charged work, bytes).
  double value = 0;
  /// Free-form detail (task name, placement explanation).  May be empty.
  std::string detail;
  /// Recorder-assigned sequence number: the deterministic total order of
  /// recording, used to break timestamp ties in exports.
  std::uint64_t seq = 0;
};

}  // namespace jade::obs
