// TraceReader — turns recorded runs back into model inputs.
//
// Two entry points, both feeding the same extractor:
//   * in-memory:  extract_profile(events, stats) over a TraceRecorder
//     snapshot (the cheap path the profiler uses);
//   * on-disk:    read_chrome_trace(...) parses one of our deterministic
//     Chrome-trace JSON exports (obs/chrome_trace.cpp is the writer this
//     parser mirrors) back into TraceEvents, so archived BENCH traces can be
//     re-fit without re-running anything.
//
// The extraction walks the task-lifecycle events ("task.created",
// "task.dispatched", "task.body_start", "task" spans) and computes the
// graph-shape half of WorkloadFeatures: grain distribution, fan-out, peak
// ready backlog.  Data-demand counters (payload bytes, messages) come from
// RuntimeStats — the coherence layer already counts them exactly.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "jade/core/stats.hpp"
#include "jade/model/features.hpp"
#include "jade/obs/event.hpp"

namespace jade::model {

/// Raw per-run extraction (one run = one platform+policy): the graph-shape
/// features plus the run's own outcome numbers.  The profiler composes
/// several of these into one WorkloadFeatures.
struct RunProfile {
  double tasks = 0;            ///< tasks created, root excluded
  double total_work = 0;       ///< charge units (stats)
  double mean_grain = 0;
  double max_grain = 0;
  double fanout = 0;           ///< mean children per spawning non-root task
  double root_fanout = 0;      ///< children attributed to the root
  double max_queue_depth = 0;  ///< peak created-but-undispatched backlog
  double payload_bytes = 0;    ///< stats.payload_bytes
  double messages = 0;         ///< stats.messages
  double finish_time = 0;      ///< stats.finish_time (virtual seconds)
};

/// Extracts a RunProfile from an event snapshot plus the run's stats.
RunProfile extract_profile(std::span<const obs::TraceEvent> events,
                           const RuntimeStats& stats);

/// Parses a Chrome-trace JSON export produced by obs::write_chrome_trace
/// back into TraceEvents (metadata records are skipped; timestamps convert
/// from microseconds back to seconds).  Throws ProtocolError on malformed
/// input.  Event names are interned (the TraceEvent contract wants static
/// storage), so repeated ingestion does not grow memory per call.
std::vector<obs::TraceEvent> read_chrome_trace(std::istream& in);

}  // namespace jade::model
