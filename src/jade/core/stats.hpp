// RuntimeStats — the counter bag every layer reports into.
//
// Lives in core/ (not engine/) because the runtime services below the
// engines — the coherence protocol in store/, the recovery coordinator in
// ft/, the speculation executor in sched/ — maintain their counters
// directly; Engine owns the struct instance and publishes it into the
// metrics registry at the end of run().
#pragma once

#include <cstdint>
#include <vector>

#include "jade/support/time.hpp"

namespace jade {

/// Counters every engine maintains (those that apply to it).
struct RuntimeStats {
  std::uint64_t tasks_created = 0;   ///< tasks created, linked or not
  std::uint64_t tasks_migrated = 0;  ///< executed off the creating machine
  std::uint64_t throttle_suspensions = 0;
  std::uint64_t throttle_giveups = 0;  ///< creator resumed to avoid deadlock

  // --- work-stealing dispatch (ThreadEngine) -------------------------------
  std::uint64_t tasks_stolen = 0;      ///< executed off the enabling thread
  std::uint64_t worker_parks = 0;      ///< times a thread went to sleep idle
  std::uint64_t fiber_parks = 0;       ///< times a task parked its fiber

  std::uint64_t messages = 0;        ///< simulated network messages
  std::uint64_t bytes_sent = 0;
  std::uint64_t payload_bytes = 0;   ///< object-data bytes (bytes_sent minus
                                     ///< control traffic)
  std::uint64_t object_moves = 0;    ///< exclusive transfers (write access)
  std::uint64_t object_copies = 0;   ///< replications (read access)
  std::uint64_t invalidations = 0;
  std::uint64_t scalars_converted = 0;  ///< heterogeneous format conversion

  // --- communication-protocol optimizations (SimEngine, optimized_comm) ----
  std::uint64_t requests_combined = 0;  ///< requests that rode a shared fetch
  std::uint64_t replicas_reused = 0;    ///< stale replicas revalidated in place
  std::uint64_t invalidations_coalesced = 0;  ///< unicasts folded into mcasts
  std::uint64_t conversions_cached = 0;  ///< cross-endian conversions skipped
  std::uint64_t bytes_avoided = 0;       ///< wire bytes the optimizations saved

  // --- speculative execution (SchedPolicy::spec) ---------------------------
  std::uint64_t spec_started = 0;    ///< speculative dispatches
  std::uint64_t spec_committed = 0;  ///< speculations whose writes became
                                     ///< canonical at serial enable time
  std::uint64_t spec_aborted = 0;    ///< speculations discarded on conflict
  std::uint64_t spec_denied = 0;     ///< candidates rejected by the
                                     ///< conflict-history throttle
  std::uint64_t spec_wasted_bytes = 0;  ///< shadow-buffer bytes discarded
  double spec_wasted_work = 0;          ///< charge() units of aborted specs

  double total_charged_work = 0;     ///< sum of charge() units
  SimTime finish_time = 0;           ///< virtual completion time (SimEngine)
  std::vector<double> machine_busy_seconds;  ///< per machine (SimEngine)

  // --- fault tolerance (SimEngine with FaultConfig.enabled) ----------------
  std::uint64_t machine_crashes = 0;
  std::uint64_t tasks_killed = 0;     ///< running attempts lost to crashes
  std::uint64_t tasks_requeued = 0;   ///< killed attempts re-run on survivors
  std::uint64_t messages_dropped = 0;
  std::uint64_t message_retries = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t false_suspicions = 0;  ///< live machines suspected (congestion)
  std::uint64_t objects_rehomed = 0;   ///< ownership re-elected to a replica
  std::uint64_t objects_restored = 0;  ///< reloaded from stable storage
  std::uint64_t objects_lost = 0;      ///< sole copy died, no stable storage
  double wasted_charged_work = 0;      ///< charge() units of killed attempts
  SimTime detection_latency_total = 0; ///< sum over crashes of detect - crash
};

}  // namespace jade
