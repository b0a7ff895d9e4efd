// Profiler — measures WorkloadFeatures from cheap deterministic runs.
//
// One call runs the workload a handful of times on canonical SimEngine
// platforms and composes the per-run extractions (trace_reader.hpp) into the
// platform-independent feature vector the CostModel consumes:
//
//   1. wide probe     — a huge contention-free shared-memory platform with
//                       zero task-management overheads; virtual completion
//                       time approaches the critical path, so
//                       critical_path_work = finish_time · ops_per_second.
//   2. comm profile   — an ideal-network message-passing platform, locality
//                       on, tracing on; the Chrome-trace export is parsed
//                       back through read_chrome_trace (the on-disk path is
//                       exercised on purpose) and yields task counts, grain
//                       distribution, fan-out, backlog depth, and the
//                       locality-placed data demand.
//   3. locality-off   — the same platform with locality scoring disabled;
//                       its stats give the no-locality data demand.
//   4. spec probe     — (optional) the comm platform with speculation on;
//                       the completion-time ratio off/on is spec_speedup.
//
// Every run is a fresh Runtime, so the workload closure must be
// self-contained (allocate, run, optionally verify) and deterministic.
#pragma once

#include <functional>

#include "jade/core/runtime.hpp"
#include "jade/model/features.hpp"

namespace jade::model {

struct ProfileOptions {
  /// Width of the message-passing profile platform (comm + spec probes).
  int machines = 8;
  /// Take the extra speculation run (skip for spec-irrelevant workloads).
  bool probe_speculation = true;
};

/// A self-contained Jade program: allocate objects, run, read back.
using WorkloadFn = std::function<void(Runtime&)>;

/// Profiles `workload` (several fresh SimEngine runs, see header comment)
/// and returns the composed feature vector with `valid = true`.
WorkloadFeatures profile_workload(const WorkloadFn& workload,
                                  const ProfileOptions& opts = {});

}  // namespace jade::model
