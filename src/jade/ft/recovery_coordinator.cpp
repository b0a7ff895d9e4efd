#include "jade/ft/recovery_coordinator.hpp"

#include <algorithm>
#include <string>

#include "jade/ft/recovery.hpp"
#include "jade/support/error.hpp"
#include "jade/support/log.hpp"

namespace jade {

namespace {
/// Wire size of one heartbeat message.
constexpr std::size_t kHeartbeatBytes = 32;
/// Restoring a sole-copy object from stable storage takes this latency plus
/// its size at this bandwidth.
constexpr SimTime kRestoreLatency = 10e-3;
constexpr double kRestoreBytesPerSecond = 10e6;
}  // namespace

RecoveryCoordinator::RecoveryCoordinator(
    const FaultConfig& fault, int machine_count, RecoveryHooks& hooks,
    CoherenceTransport& transport, ObjectDirectory& directory,
    CoherenceProtocol& coherence, RuntimeStats& stats, obs::Tracer& tracer,
    std::size_t control_message_bytes)
    : fault_(fault),
      machine_count_(machine_count),
      hooks_(hooks),
      transport_(transport),
      directory_(directory),
      coherence_(coherence),
      stats_(stats),
      tracer_(tracer),
      control_message_bytes_(control_message_bytes) {
  const FaultPlan plan = FaultPlan::make(fault_, machine_count_);
  injector_ = std::make_unique<FaultInjector>(plan, machine_count_);
  detector_ = std::make_unique<FailureDetector>(
      machine_count_, fault_.heartbeat_interval,
      fault_.heartbeat_miss_threshold);
  pending_recovery_.resize(static_cast<std::size_t>(machine_count_));
  recovery_waiters_.resize(static_cast<std::size_t>(machine_count_));
}

void RecoveryCoordinator::schedule_events() {
  for (const CrashEvent& c : injector_->crashes()) {
    hooks_.schedule_at(c.time, [this, m = c.machine] { handle_crash(m); });
  }
  hooks_.schedule_at(fault_.heartbeat_interval,
                     [this] { send_heartbeats(); });
  hooks_.schedule_at(fault_.heartbeat_interval, [this] { detector_sweep(); });
}

void RecoveryCoordinator::send_heartbeats() {
  if (hooks_.drained()) return;
  for (MachineId m = 1; m < machine_count_; ++m) {
    if (!injector_->machine_up(m)) continue;
    const SimTime arrival =
        transport_.unicast(m, 0, kHeartbeatBytes, transport_.now());
    ++stats_.heartbeats_sent;
    stats_.messages += 1;
    stats_.bytes_sent += kHeartbeatBytes;
    hooks_.schedule_at(arrival, [this, m, arrival] {
      // A heartbeat retransmitted past its sender's detected death is
      // stale; the coordinator has fenced the machine and must not let it
      // clear the suspicion (the detector would then declare it dead a
      // second time and recovery would run twice).
      if (injector_->health(m).detected_at != 0) return;
      detector_->heartbeat_received(m, arrival);
    });
  }
  hooks_.schedule_in(fault_.heartbeat_interval, [this] { send_heartbeats(); });
}

void RecoveryCoordinator::detector_sweep() {
  if (hooks_.drained()) return;
  for (MachineId suspect : detector_->sweep(transport_.now())) {
    if (injector_->machine_up(suspect)) {
      // Congestion delayed the heartbeats past the threshold.  The
      // coordinator double-checks with a direct probe (modeled as ground
      // truth) and does not kill a live machine's work; the standing
      // suspicion clears when the next heartbeat arrives.
      ++stats_.false_suspicions;
      tracer_.instant(obs::Subsystem::kFt, "ft.false_suspicion",
                      static_cast<std::uint64_t>(suspect), suspect);
      continue;
    }
    recover_machine(suspect);
  }
  hooks_.schedule_in(fault_.heartbeat_interval, [this] { detector_sweep(); });
}

void RecoveryCoordinator::handle_crash(MachineId m) {
  if (hooks_.drained()) return;  // the program already finished
  injector_->record_crash(m, transport_.now());
  ++stats_.machine_crashes;
  tracer_.instant(obs::Subsystem::kFt, "ft.crash",
                  static_cast<std::uint64_t>(m), m);
  JADE_TRACE("t=" << transport_.now() << " CRASH machine " << m);
  // The machine goes dark: no new work is ever placed on it.
  hooks_.mark_machine_dark(m);
  // Kill every restartable attempt resident on the machine, in creation
  // order (deterministic).  Non-restartable attempts (they spawned children
  // or ran a with-cont — effects that already escaped) ride out the crash
  // and run to completion; see docs/FAULT_TOLERANCE.md for the model.
  const std::vector<TaskNode*> victims = hooks_.restartable_victims(m);
  for (TaskNode* task : victims) kill_task_attempt(task);
  for (TaskNode* task : victims)
    pending_recovery_[static_cast<std::size_t>(m)].push_back(task);
  // Surviving (non-restartable) residents parked for a context slot would
  // wait forever: the holders they waited on were just killed and killed
  // attempts never release.  The dead machine has no real slots anyway —
  // wake them all.
  hooks_.wake_context_waiters(m);
  // Replica/ownership surgery waits for *detection*: until the failure
  // detector notices, the cluster keeps routing requests at the dead
  // machine (and the transfer path parks the requesters).
  hooks_.release_throttled();
}

void RecoveryCoordinator::kill_task_attempt(TaskNode* task) {
  AttemptState& attempt = hooks_.attempt_state(task);
  ++stats_.tasks_killed;
  tracer_.instant(obs::Subsystem::kFt, "ft.kill", task->id(),
                  task->assigned_machine,
                  task->charged_work - attempt.charge_base);
  JADE_TRACE("t=" << transport_.now() << " kill " << task->name()
                  << " on machine " << task->assigned_machine);
  // Undo the attempt's writes (reverse acquisition order), the data-version
  // bumps they opened, and the charge.  Clearing `dirtied` makes the re-run
  // bump again from the restored version; nothing can have recorded a
  // reusable replica at the doomed version (it was dropped, not copied).
  for (auto it = attempt.snapshots.rbegin(); it != attempt.snapshots.rend();
       ++it) {
    std::copy(it->bytes.begin(), it->bytes.end(), directory_.data(it->obj));
    directory_.set_data_version(it->obj, it->data_version);
  }
  attempt.snapshots.clear();
  attempt.dirtied.clear();
  const double wasted = task->charged_work - attempt.charge_base;
  stats_.wasted_charged_work += wasted;
  task->charged_work = attempt.charge_base;
  // The engine unwinds whatever wait the process is parked in, hands held
  // commute tokens on, rewinds the serializer, and aborts the process.
  hooks_.abort_attempt_execution(task);
}

void RecoveryCoordinator::recover_machine(MachineId m) {
  injector_->record_detected(m, transport_.now());
  stats_.detection_latency_total +=
      transport_.now() - injector_->health(m).crashed_at;
  tracer_.instant(obs::Subsystem::kFt, "ft.recover",
                  static_cast<std::uint64_t>(m), m,
                  transport_.now() - injector_->health(m).crashed_at);
  JADE_TRACE("t=" << transport_.now() << " machine " << m
                  << " declared dead; recovering");

  // Directory surgery, in ObjectId order (deterministic).
  const std::vector<std::uint8_t> up = injector_->up_mask();
  for (const RecoveryAction& a :
       plan_object_recovery(directory_, m, up, fault_.stable_storage)) {
    switch (a.fate) {
      case ObjectFate::kRehomed:
        if (a.owner_moved) {
          directory_.set_owner(a.obj, a.new_home);
          directory_.drop_copy(a.obj, m);
          ++stats_.objects_rehomed;
          // Home re-election costs a control message to the new home; the
          // replica it already holds becomes the authoritative copy.
          const std::size_t bytes = control_message_bytes_;
          transport_.unicast(0, a.new_home, bytes, transport_.now());
          stats_.messages += 1;
          stats_.bytes_sent += bytes;
        } else {
          directory_.drop_copy(a.obj, m);  // only a replica died
        }
        break;
      case ObjectFate::kRestored: {
        directory_.drop_copy(a.obj, m);
        directory_.restore_to(a.obj, a.new_home);
        const SimTime done =
            transport_.now() + kRestoreLatency +
            static_cast<SimTime>(directory_.object_bytes(a.obj)) /
                kRestoreBytesPerSecond;
        coherence_.set_available_at(a.obj, a.new_home, done);
        ++stats_.objects_restored;
        break;
      }
      case ObjectFate::kLost:
        directory_.drop_copy(a.obj, m);
        directory_.mark_lost(a.obj);
        ++stats_.objects_lost;
        break;
    }
  }

  // Forget cached availability on the dead machine.
  coherence_.forget_machine(m);

  // Re-queue the killed attempts onto survivors, in kill order.
  auto& pending = pending_recovery_[static_cast<std::size_t>(m)];
  for (TaskNode* task : pending) {
    if (task->placement == m)
      throw UnrecoverableError(
          "task '" + task->name() + "' is pinned to crashed machine " +
          std::to_string(m) + " and cannot be re-run elsewhere");
    ++stats_.tasks_requeued;
    tracer_.instant(obs::Subsystem::kFt, "ft.requeue", task->id(), m);
    hooks_.requeue_task(task);
  }
  pending.clear();

  // Wake the transfers that were parked on this machine's recovery.
  std::deque<TaskNode*> waiters;
  waiters.swap(recovery_waiters_[static_cast<std::size_t>(m)]);
  for (TaskNode* w : waiters) hooks_.resume_task(w);

  hooks_.after_recovery();
}

void RecoveryCoordinator::snapshot_before_write(AttemptState& attempt,
                                                ObjectId obj) {
  for (const AttemptState::Snapshot& s : attempt.snapshots)
    if (s.obj == obj) return;  // first write wins; later acquires are no-ops
  auto view = directory_.data_view(obj);
  attempt.snapshots.push_back(AttemptState::Snapshot{
      obj, directory_.data_version(obj),
      std::vector<std::byte>(view.begin(), view.end())});
}

void RecoveryCoordinator::add_recovery_waiter(MachineId owner,
                                              TaskNode* task) {
  recovery_waiters_[static_cast<std::size_t>(owner)].push_back(task);
}

void RecoveryCoordinator::remove_recovery_waiter(TaskNode* task) {
  for (auto& waiters : recovery_waiters_) {
    auto it = std::find(waiters.begin(), waiters.end(), task);
    if (it != waiters.end()) waiters.erase(it);
  }
}

}  // namespace jade
