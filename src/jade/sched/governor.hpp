// Concurrency governors shared by every engine.
//
// Two mechanisms used to live twice — once in SimEngine, once in
// ThreadEngine — with the copies slowly diverging:
//
//   * CommuteTokenTable — commuting-update exclusivity (the Section 4.3
//     extension): commuters may execute in any order but their accesses are
//     mutually exclusive, so a task takes an object's token at its first
//     commute accessor and holds it until completion (or an early no_cm).
//     Both engines queue waiters FIFO and resume the one release() hands
//     the token to (SimEngine parks a process, ThreadEngine a fiber).
//   * ThrottleGate — suppression of excess task creation (Section 3.3,
//     Figure 7(e)): the water-mark predicates; the engines count
//     suspensions and give-ups in RuntimeStats where they happen.
//
// Engine owns one of each.  Neither component synchronizes: the caller
// brings its own discipline (SimEngine is single-threaded; ThreadEngine and
// ClusterEngine call under their mu_).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/core/tenant.hpp"
#include "jade/sched/policies.hpp"

namespace jade {

class TaskNode;

/// Ownership + FIFO wait queues for commute tokens.  Holders are tracked
/// per object and per task (a completing or killed task returns every token
/// it still holds); the per-task held list preserves acquisition order.
class CommuteTokenTable {
 public:
  /// The current holder of `obj`'s token, or nullptr when free.
  TaskNode* holder(ObjectId obj) const;

  /// Takes the token if it is free (true), confirms an existing hold
  /// (true), or reports another holder (false — the caller waits).
  bool try_acquire(ObjectId obj, TaskNode* task);

  /// Queues `task` for `obj`'s token; release() hands it over FIFO.
  void enqueue_waiter(ObjectId obj, TaskNode* task);

  /// Returns `task`'s hold on `obj`.  False (a no-op) when `task` is not
  /// the holder.  The token passes to the oldest waiter, if any — reported
  /// through `next_holder` so the caller can resume it — and is freed
  /// otherwise.
  bool release(ObjectId obj, TaskNode* task, TaskNode** next_holder = nullptr);

  /// release(), then `resume(next)` for the waiter the token passed to.
  template <typename Resume>
  bool release_to(ObjectId obj, TaskNode* task, Resume&& resume) {
    TaskNode* next = nullptr;
    if (!release(obj, task, &next)) return false;
    if (next != nullptr) resume(next);
    return true;
  }

  /// Returns every token `task` holds, in acquisition order, resuming each
  /// waiter a token passes to (a completing task's hand-off).
  template <typename Resume>
  void release_all(TaskNode* task, Resume&& resume) {
    const std::vector<ObjectId> tokens = held(task);  // release() mutates it
    for (ObjectId obj : tokens) release_to(obj, task, resume);
  }

  /// The tokens `task` holds, in acquisition order (empty when none).
  const std::vector<ObjectId>& held(TaskNode* task) const;

  /// Drops `task` from every wait queue (a killed task's unwind path).
  void remove_waiter(TaskNode* task);

 private:
  std::unordered_map<ObjectId, TaskNode*> holder_;
  std::unordered_map<ObjectId, std::deque<TaskNode*>> waiters_;
  std::unordered_map<TaskNode*, std::vector<ObjectId>> held_;
};

/// Water-mark predicates for task-creation throttling.  The engine owns the
/// waiting itself, which is engine-specific (SimEngine parks a sim process,
/// ThreadEngine parks the creator's fiber with a deadlock-escape give-up).
class ThrottleGate {
 public:
  explicit ThrottleGate(ThrottleConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }

  /// True when creation must pause: throttling is on and the unstarted
  /// backlog exceeds the high-water mark.
  bool should_throttle(std::uint64_t backlog) const {
    return config_.enabled && backlog > config_.high_water;
  }

  /// True once the backlog has drained to the low-water mark (the resume
  /// condition for a suspended creator).
  bool backlog_drained(std::uint64_t backlog) const {
    return backlog <= config_.low_water;
  }

  /// Per-tenant analogue of should_throttle: creation by a tenant task must
  /// pause while the tenant's live-task count exceeds its quota window.
  /// Quota 0 disables the gate for that tenant.  Works even when global
  /// throttling is off — quotas are the server's lever, not the program's.
  bool tenant_gated(const TenantCtl& ctl) const {
    const std::uint64_t hi = ctl.quota_hi.load(std::memory_order_relaxed);
    return hi != 0 && ctl.live.load(std::memory_order_relaxed) > hi;
  }

  /// Per-tenant analogue of backlog_drained.
  bool tenant_drained(const TenantCtl& ctl) const {
    return ctl.live.load(std::memory_order_relaxed) <=
           ctl.quota_lo.load(std::memory_order_relaxed);
  }

 private:
  ThrottleConfig config_;
};

/// Splits a pool of live-task slots among tenants in proportion to their
/// weights, returning one (quota_hi, quota_lo) window per weight.  Every
/// window is at least `min_window` slots — a starvation floor: the sum may
/// then exceed the pool, which only means the engine's backlog arbitrates
/// at the margin, never that a tenant stops dead.  quota_lo is half of
/// quota_hi (clamped to the floor), mirroring the global gate's hysteresis.
/// Zero/negative weights get the floor.  Empty input returns empty.
std::vector<std::pair<std::uint64_t, std::uint64_t>> fair_share_windows(
    std::uint64_t pool, const std::vector<double>& weights,
    std::uint64_t min_window);

}  // namespace jade
