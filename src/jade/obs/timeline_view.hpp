// Task timelines: the one TaskTimeline type, its text Gantt renderer, and
// its source, the trace.
//
// timeline_from_trace builds the records from the engine-category trace
// events ("task.created" / "task.dispatched" / "task.body_start" instants
// plus the "task" span end) — the tooling behind the Figure 7 walkthrough
// output and schedule debugging.  A task killed by fault injection and
// re-dispatched contributes its *last* attempt's dispatch/body-start
// times.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "jade/obs/event.hpp"
#include "jade/support/time.hpp"

namespace jade {

struct TaskTimeline {
  std::uint64_t task_id = 0;
  std::string name;
  MachineId machine = -1;
  SimTime created = 0;     ///< withonly executed (serial creation point)
  SimTime dispatched = 0;  ///< assigned to a machine context
  SimTime body_start = 0;  ///< objects fetched, dispatch overhead paid
  SimTime completed = 0;
  double charged_work = 0;

  SimTime queue_wait() const { return dispatched - created; }
  SimTime fetch_wait() const { return body_start - dispatched; }
  SimTime execution() const { return completed - body_start; }
};

/// Renders one row per machine; each column is a time bucket, marked '#'
/// when some task body was executing there and '.' when a task was resident
/// but fetching.  Deterministic, monospace, for terminal output.
std::string render_gantt(const std::vector<TaskTimeline>& timeline,
                         int machines, SimTime end, int width = 72);

/// Per-machine body-residency over [0, end]: the summed execution() spans
/// of tasks resident on each machine, as a fraction of end.  A span covers
/// CPU time plus any waiting the body did, so with k task contexts per
/// machine the value can approach k; the per-machine CPU-busy fractions are
/// RuntimeStats::machine_busy_seconds / finish_time.
std::vector<double> machine_utilization(
    const std::vector<TaskTimeline>& timeline, int machines, SimTime end);

namespace obs {

/// One TaskTimeline per completed "task" span, in completion order.  Events
/// of other categories are ignored, so the full mixed stream can be passed
/// directly.
std::vector<TaskTimeline> timeline_from_trace(
    std::span<const TraceEvent> events);

}  // namespace obs
}  // namespace jade
