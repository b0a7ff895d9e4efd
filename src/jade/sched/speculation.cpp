#include "jade/sched/speculation.hpp"

#include <algorithm>

#include "jade/core/access.hpp"
#include "jade/core/queues.hpp"
#include "jade/support/error.hpp"

namespace jade {

SpeculationExecutor::SpeculationExecutor(SpecConfig config,
                                         Serializer& serializer,
                                         SpeculationHooks& hooks,
                                         RuntimeStats& stats,
                                         obs::Tracer& tracer)
    : config_(config),
      serializer_(serializer),
      hooks_(hooks),
      stats_(stats),
      tracer_(tracer) {}

bool SpeculationExecutor::offer(TaskNode* task) {
  if (task->state() != TaskState::kPending || task->tenant() != nullptr ||
      task->placement >= 0)
    return false;
  candidates_.push_back(task);
  return true;
}

TaskNode* SpeculationExecutor::launch(
    const std::function<MachineId(TaskNode*)>& place) {
  std::vector<ObjectId> contested;
  const auto throttled = [&](ObjectId obj) {
    auto it = conflict_history_.find(obj);
    return it != conflict_history_.end() &&
           it->second >= config_.conflict_limit;
  };
  std::size_t examined = 0;
  std::size_t i = 0;
  const auto drop = [&] {
    candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(i));
  };
  while (i < candidates_.size() && examined < kWindow) {
    TaskNode* task = candidates_[i];
    if (task->state() != TaskState::kPending || task->speculating()) {
      drop();
      continue;
    }
    ++examined;
    if (!serializer_.spec_eligible(task, &contested)) {
      ++i;  // may become eligible once a predecessor weakens
      continue;
    }
    if (std::any_of(contested.begin(), contested.end(), throttled)) {
      // An object this bet is against keeps conflicting: stop betting on
      // it.  The task leaves the list for good and runs normally.
      ++stats_.spec_denied;
      drop();
      continue;
    }
    const MachineId m = place(task);
    if (m < 0) {
      ++i;
      continue;
    }
    drop();
    serializer_.spec_start(task);
    ++stats_.spec_started;
    task->assigned_machine = m;
    auto a = std::make_unique<Attempt>();
    a->task = task;
    a->charge_base = task->charged_work;
    // The caller's discipline makes each bytes+epoch capture atomic: a
    // conflicting writer's first touch passes through Serializer::acquire,
    // which bumps the epoch.  Pure-commute rights get no shadow.
    for (const DeclRecord* rec : task->ordered_records()) {
      if (rec->immediate == 0 || rec->immediate == access::kCommute) continue;
      a->epochs.emplace_back(rec->obj, serializer_.write_epoch(rec->obj));
      a->shadows.emplace_back(rec->obj, hooks_.read_bytes(rec->obj));
    }
    tracer_.instant(obs::Subsystem::kEngine, "spec.dispatch", task->id(), m,
                    static_cast<double>(contested.size()));
    a->contested = std::move(contested);
    attempts_.emplace(task, std::move(a));
    return task;
  }
  return nullptr;
}

SpeculationExecutor::Attempt* SpeculationExecutor::attempt(TaskNode* task) {
  auto it = attempts_.find(task);
  return it == attempts_.end() ? nullptr : it->second.get();
}

std::byte* SpeculationExecutor::shadow(Attempt* attempt, TaskNode* task,
                                       ObjectId obj, std::uint8_t mode) {
  JADE_ASSERT_MSG(attempt != nullptr && attempt->task == task,
                  "speculative access outside its attempt");
  const DeclRecord* rec = task->find_record(obj);
  // Undeclared or commuting access: abort the speculation; the normal
  // re-run raises the real error (or takes the commute token) at the same
  // deterministic point.
  if (rec == nullptr || (mode & static_cast<std::uint8_t>(~rec->immediate)) ||
      (mode & access::kCommute))
    throw SpeculationUnwind{};
  for (auto& [sobj, bytes] : attempt->shadows) {
    if (sobj != obj) continue;
    std::vector<ObjectId>& dirty = attempt->dirty;
    if ((mode & access::kWrite) &&
        std::find(dirty.begin(), dirty.end(), obj) == dirty.end())
      dirty.push_back(obj);
    return bytes.data();
  }
  throw SpeculationUnwind{};  // no shadow (pure-commute record)
}

void SpeculationExecutor::body_finished(TaskNode* task, bool clean) {
  Attempt* a = attempt(task);
  JADE_ASSERT(a != nullptr);
  a->body_done = true;
  a->clean = clean;
}

SpeculationExecutor::Outcome SpeculationExecutor::decide(TaskNode* task,
                                                         bool doomed) {
  Attempt* a = attempt(task);
  JADE_ASSERT(a != nullptr);
  if (!a->body_done) return Outcome::kPending;  // decided at the body's end
  JADE_ASSERT(task->state() == TaskState::kReady);
  bool conflict = false;
  if (a->clean && !doomed) {
    // The serializer is the commit check: the task is enabled in serial
    // order, and unchanged write epochs prove no conflicting write
    // materialized since the snapshot.
    conflict = std::any_of(
        a->epochs.begin(), a->epochs.end(), [this](const auto& epoch) {
          return serializer_.write_epoch(epoch.first) != epoch.second;
        });
    if (!conflict) {
      commit(task, *a);
      return Outcome::kCommitted;
    }
  }
  abort(task, conflict);
  return Outcome::kAborted;
}

void SpeculationExecutor::commit(TaskNode* task, Attempt& a) {
  serializer_.spec_commit(task);  // kReady -> kRunning, in serial order
  ++stats_.spec_committed;
  // The buffered writes become the canonical bytes before complete_task can
  // enable any successor — exactly where a normal run's writes would
  // already be.  Every dirty object has a shadow (shadow() records only
  // those).
  for (ObjectId obj : a.dirty) {
    auto it = std::find_if(a.shadows.begin(), a.shadows.end(),
                           [obj](const auto& s) { return s.first == obj; });
    hooks_.publish_bytes(task, obj, it->second);
    serializer_.bump_write_epoch(obj);
  }
  const MachineId m = task->assigned_machine;
  tracer_.instant(obs::Subsystem::kEngine, "spec.commit", task->id(), m,
                  static_cast<double>(a.dirty.size()));
  if (tracer_.enabled()) {
    // The task's span materializes at its serial position (zero width: the
    // work itself ran earlier, speculatively).
    tracer_.span_begin(obs::Subsystem::kEngine, "task", task->id(), m,
                       task->name());
    tracer_.span_end(obs::Subsystem::kEngine, "task", task->id(), m,
                     task->charged_work);
  }
  task->body = nullptr;
  attempts_.erase(task);
  serializer_.complete_task(task);
}

void SpeculationExecutor::abort(TaskNode* task, bool conflict) {
  auto it = attempts_.find(task);
  JADE_ASSERT(it != attempts_.end());
  const Attempt& a = *it->second;
  for (const auto& [obj, bytes] : a.shadows)
    stats_.spec_wasted_bytes += bytes.size();
  const double wasted_work = task->charged_work - a.charge_base;
  stats_.spec_wasted_work += wasted_work;
  ++stats_.spec_aborted;
  if (conflict)
    for (ObjectId obj : a.contested) ++conflict_history_[obj];
  // The attempt's charge never happened for the task (an engine that folds
  // charge into a global total keeps it there, as wasted work).
  task->charged_work = a.charge_base;
  serializer_.spec_abort(task);
  tracer_.instant(obs::Subsystem::kEngine, "spec.abort", task->id(),
                  task->assigned_machine, wasted_work);
  task->assigned_machine = -1;
  attempts_.erase(it);
}

void SpeculationExecutor::reset() {
  candidates_.clear();
  enabled_.clear();
  attempts_.clear();
  conflict_history_.clear();
}

}  // namespace jade
