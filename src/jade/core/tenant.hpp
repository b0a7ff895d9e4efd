// Tenant control blocks — the unit of multi-program isolation.
//
// The paper's Jade programs are one-shot runs: one root task, one graph, one
// exit.  The server front end (src/jade/server) admits many independent
// programs ("tenants") onto one shared engine; each gets a TenantCtl woven
// through its TaskNodes by the serializer.  The block carries:
//
//   * identity — the TenantId that also tags the tenant's shared objects,
//     so the serializer can reject cross-tenant declarations at task
//     creation (the single chokepoint through which every access right
//     enters a task graph);
//   * accounting — created/completed/cancelled/live task counters, updated
//     under the engine's serializer discipline;
//   * quota — a live-task window (hi/lo watermarks) enforced through the
//     shared ThrottleGate, giving each tenant a fair share of the engine's
//     exploited concurrency;
//   * lifecycle — the cancelled flag engines poll to unwind a torn-down
//     tenant's in-flight tasks, and the quiesce hook that fires when the
//     tenant's last task completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>

#include "jade/core/object.hpp"

namespace jade {

/// Internal unwind marker: thrown inside a cancelled tenant's task body (by
/// the engine, at a spawn or wait edge) to pop the body without running the
/// rest of it.  Engines catch it and complete the task normally — it is a
/// teardown signal, not a failure — so the serializer's queues stay
/// consistent for every other tenant.  Never escapes an engine.
struct TenantUnwind {};

/// Shared control block of one tenant.  The serializer and the engines
/// mutate it under the engine's serializer discipline (ThreadEngine: mu_;
/// SimEngine/SerialEngine: single-threaded); the server and host threads
/// read the atomics without that lock, which is why they are atomics.
struct TenantCtl {
  explicit TenantCtl(TenantId id) : id(id) {}

  TenantCtl(const TenantCtl&) = delete;
  TenantCtl& operator=(const TenantCtl&) = delete;

  const TenantId id;

  /// Forced teardown: engines skip the bodies of not-yet-started tasks and
  /// unwind spawning/waiting ones (TenantUnwind).  Tasks still *complete*
  /// through the serializer, so successors — this tenant's and everyone
  /// else's — are released exactly as if the bodies had run.
  std::atomic<bool> cancelled{false};

  // --- accounting (serializer-side writes) ---------------------------------
  std::atomic<std::uint64_t> tasks_created{0};
  std::atomic<std::uint64_t> tasks_completed{0};
  /// Bodies skipped or unwound by cancellation (engine-side writes).
  std::atomic<std::uint64_t> tasks_cancelled{0};
  /// Created-but-incomplete tasks — the quota gate's signal.
  std::atomic<std::uint64_t> live{0};
  /// High-water mark of `live`; fairness tests assert against it.
  std::atomic<std::uint64_t> max_live{0};

  // --- quota (server-side writes, gate-side reads) -------------------------
  /// Live-task window: a tenant task creating a child while live > quota_hi
  /// suspends until live <= quota_lo (or the engine's deadlock escape
  /// fires).  0 disables the gate for this tenant.
  std::atomic<std::uint64_t> quota_hi{0};
  std::atomic<std::uint64_t> quota_lo{0};

  /// Fires when `live` drops to 0 (under the engine's serializer lock).
  /// Must only record state and notify — never re-enter the engine.
  std::function<void(TenantCtl&)> on_quiesce;

  /// First exception that escaped one of this tenant's task bodies; the
  /// engine records it, cancels the tenant, and keeps serving everyone else.
  void record_failure(std::exception_ptr err) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failure_) failure_ = std::move(err);
  }
  std::exception_ptr failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failure_;
  }

 private:
  mutable std::mutex mu_;
  std::exception_ptr failure_;
};

/// True when `ctl` names a cancelled tenant (false for a host task's null).
inline bool cancelled(const TenantCtl* ctl) {
  return ctl != nullptr && ctl->cancelled.load(std::memory_order_relaxed);
}

}  // namespace jade
