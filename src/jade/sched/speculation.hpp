// Speculative task execution (SchedPolicy::spec), one implementation for
// every engine that hosts it.
//
// A pending task whose only unresolved conflicting predecessors are pure
// readers or unexercised write declarations may run ahead against
// snapshot-isolated shadow buffers (docs/PERFORMANCE.md).  The executor owns
// the candidate scan, the budget and conflict-history throttle, each
// attempt's state, the shadow translation of its accesses, the commit check,
// the commit write-back, the abort rewind, and the spec.* counters (kept in
// the engine's RuntimeStats) and trace events.  The engine keeps placement,
// running the body and waking waiters, and serves the executor through
// SpeculationHooks.
//
// Locking: the executor never synchronizes.  SimEngine is single-threaded;
// ThreadEngine calls every member under its mu_ except shadow(), which the
// thread running an attempt calls lock-free — nothing else touches an
// attempt's buffers before body_finished(), made under the lock.
// Determinism: candidates are scanned in creation order, decisions read
// keyed state only, and commits happen in serial enable order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/core/stats.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/sched/policies.hpp"

namespace jade {

class Serializer;
class TaskNode;

/// Thrown inside a speculatively executing body when it reaches an operation
/// the snapshot-isolated path cannot perform — spawn, with-cont, a commuting
/// acquisition, an undeclared access.  The attempt aborts and the task later
/// runs normally, where a genuine error reproduces deterministically.
struct SpeculationUnwind {};

/// What the executor needs from the engine hosting it.
class SpeculationHooks {
 public:
  virtual ~SpeculationHooks() = default;
  /// The canonical bytes of `obj` now: a snapshot's source.
  virtual std::vector<std::byte> read_bytes(ObjectId obj) = 0;
  /// Makes `bytes` the canonical contents of `obj`: a buffered write of the
  /// committing `task`, published at its serial position.
  virtual void publish_bytes(TaskNode* task, ObjectId obj,
                             std::span<const std::byte> bytes) = 0;
};

class SpeculationExecutor {
 public:
  /// How far down the candidate list one scan looks.
  static constexpr std::size_t kWindow = 32;

  /// One speculative attempt's private state.
  struct Attempt {
    TaskNode* task = nullptr;
    bool body_done = false;
    bool clean = false;      ///< the body ran to its end without throwing
    double charge_base = 0;  ///< charged_work at launch; an abort restores it
    /// Copies of the declared immediate objects, pure-commute ones excluded.
    std::vector<std::pair<ObjectId, std::vector<std::byte>>> shadows;
    std::vector<ObjectId> dirty;  ///< shadows the body wrote, in order
    /// Serializer write epoch per shadow at capture; unchanged at decision
    /// time, they are the commit proof.
    std::vector<std::pair<ObjectId, std::uint64_t>> epochs;
    /// Objects whose unexercised writers the bet is against; a conflict
    /// abort charges their history.
    std::vector<ObjectId> contested;
  };

  enum class Outcome { kPending, kCommitted, kAborted };

  SpeculationExecutor(SpecConfig config, Serializer& serializer,
                      SpeculationHooks& hooks, RuntimeStats& stats,
                      obs::Tracer& tracer);

  bool enabled() const { return config_.enabled; }

  /// Registers a task just created as a candidate if it may ever speculate:
  /// pending, not a tenant's, not pinned to a machine.  True if registered.
  bool offer(TaskNode* task);

  /// True while the budget has room and a candidate waits.
  bool can_start() const {
    return attempts_.size() < static_cast<std::size_t>(config_.max_live) &&
           !candidates_.empty();
  }

  /// Scans the first kWindow live candidates in creation order for one that
  /// is eligible, not throttled by conflict history, and placed by `place`
  /// (its machine, or -1 to pass over it).  Launches it there — marks it
  /// speculating and snapshots its declared objects — and returns it;
  /// nullptr when nothing qualifies.
  TaskNode* launch(const std::function<MachineId(TaskNode*)>& place);

  /// The live attempt of a speculating task, or nullptr.
  Attempt* attempt(TaskNode* task);

  /// acquire_bytes for a speculating body: a pointer into the shadow of
  /// `obj`.  Throws SpeculationUnwind for an access the snapshot cannot
  /// serve (undeclared, commuting, or without a shadow).
  static std::byte* shadow(Attempt* attempt, TaskNode* task, ObjectId obj,
                           std::uint8_t mode);

  /// Records the end of an attempt's body; `clean` is false if it threw.
  void body_finished(TaskNode* task, bool clean);

  /// Queues the commit check of a speculating task the serializer just
  /// enabled (from SerializerListener::on_task_ready, which must not
  /// re-enter the serializer by deciding inline).
  void note_enabled(TaskNode* task) { enabled_.push_back(task); }

  /// The next queued commit check, in serial enable order, or nullptr.
  TaskNode* next_enabled() {
    while (!enabled_.empty()) {
      TaskNode* task = enabled_.front();
      enabled_.pop_front();
      if (attempts_.contains(task)) return task;  // else already decided
    }
    return nullptr;
  }

  /// The commit check of an enabled speculating task: kPending until its
  /// body is done.  Then it commits — publishing the dirty shadows and
  /// completing the task — if the body ran clean, the host has no veto
  /// (`doomed`) and every captured write epoch is unchanged; else aborts.
  Outcome decide(TaskNode* task, bool doomed = false);

  /// Discards `task`'s attempt, rewinds its charge and leaves the task to
  /// the normal path.  Only a data conflict charges the contested objects'
  /// history; a crash of the host machine does not.
  void abort(TaskNode* task, bool conflict = false);

  /// Clears candidates, attempts and history for a fresh run.
  void reset();

 private:
  void commit(TaskNode* task, Attempt& a);

  SpecConfig config_;
  Serializer& serializer_;
  SpeculationHooks& hooks_;
  RuntimeStats& stats_;  ///< the spec_* fields
  obs::Tracer& tracer_;
  std::deque<TaskNode*> candidates_;  ///< creation order
  std::deque<TaskNode*> enabled_;     ///< serial enable order
  std::unordered_map<TaskNode*, std::unique_ptr<Attempt>> attempts_;
  std::unordered_map<ObjectId, int> conflict_history_;  ///< aborts per object
};

}  // namespace jade
