#include "jade/engine/sim_engine.hpp"

#include <algorithm>

#include "jade/core/tenant.hpp"
#include "jade/net/faulty.hpp"
#include "jade/support/error.hpp"
#include "jade/support/log.hpp"

namespace jade {

namespace {
constexpr std::uint8_t kExclusiveBits = access::kWrite | access::kCommute;
}  // namespace

SimEngine::SimTask& SimEngine::st(TaskNode* task) {
  JADE_ASSERT_MSG(task->engine_data != nullptr,
                  "task has no simulation state");
  return *static_cast<SimTask*>(task->engine_data);
}

// --- objects ---------------------------------------------------------------

void SimEngine::create_storage(const ObjectInfo& info, MachineId home) {
  MachineId home_m;
  if (home >= 0) {
    JADE_ASSERT_MSG(home < machine_count(), "placement machine out of range");
    home_m = home;
  } else {
    home_m = next_home_;
    next_home_ = (next_home_ + 1) % machine_count();
  }
  directory_.add_object(info, home_m);
}

void SimEngine::write_storage(ObjectId obj, std::span<const std::byte> data) {
  std::copy(data.begin(), data.end(), directory_.data(obj));
  // A host write starts a new data version (invalidates conversion cache
  // entries and any stale-replica reuse from a previous state).
  directory_.mark_dirty(obj);
}

std::vector<std::byte> SimEngine::read_storage(ObjectId obj) {
  auto view = directory_.data_view(obj);
  return {view.begin(), view.end()};
}

// --- notifications ---------------------------------------------------------

void SimEngine::on_task_ready(TaskNode* task) {
  if (task->speculating()) {
    // The serializer just enabled a task that is running speculatively:
    // this is its commit point, not a dispatch.
    spec_.note_enabled(task);
    return;
  }
  ready_.push_back(task);
}

void SimEngine::on_task_unblocked(TaskNode* task) {
  to_unblock_.push_back(task);
}

void SimEngine::post_serializer() {
  // Commit checks first, in serial enable order: a commit retires the
  // task's records, which can enable (and commit) further speculations.
  while (TaskNode* task = spec_.next_enabled()) decide_speculation(task);
  try_dispatch();
  while (!to_unblock_.empty()) {
    std::vector<TaskNode*> batch;
    batch.swap(to_unblock_);
    for (TaskNode* t : batch) deliver_unblock(t);
  }
}

void SimEngine::deliver_unblock(TaskNode* task) {
  SimTask& t = st(task);
  JADE_ASSERT_MSG(t.wait == Wait::kUnblock,
                  "unblock delivered to a task not waiting on dependencies");
  sim_.resume(t.process);
}

// --- dispatch --------------------------------------------------------------

int SimEngine::count_free_contexts(std::vector<int>& free) const {
  free.resize(machines_.size());
  int total = 0;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    free[m] = machines_[m].free_contexts;
    total += free[m];
  }
  return total;
}

void SimEngine::try_dispatch() {
  // Task-driven dispatch in FIFO order: each ready task picks its best
  // machine — most declared bytes already resident (locality), then the
  // creating machine, then the least-loaded (pure balancing).  On
  // shared-memory platforms data movement is free, so locality is moot and
  // only load balancing applies.
  const bool locality = sched_.locality && !cluster_.shared_memory();
  std::vector<int> free;
  // Tracing also captures why: every candidate machine with its locality
  // score, so a placement can be audited from the trace.
  PlacementExplain explain;
  PlacementExplain* const why = tracer_.enabled() ? &explain : nullptr;
  bool progress = true;
  while (progress && !ready_.empty()) {
    progress = false;
    if (count_free_contexts(free) == 0) break;  // nothing can be placed
    // Bounded scheduler window: only the oldest kWindow ready tasks are
    // considered, keeping dispatch cost independent of backlog size (the
    // backlog can be huge when a creator floods tasks, Figure 7(e)).
    constexpr std::size_t kWindow = 64;
    const std::size_t window = std::min(ready_.size(), kWindow);
    for (std::size_t i = 0; i < window; ++i) {
      TaskNode* task = ready_[i];
      MachineId m;
      if (task->placement >= 0) {
        // Explicit placement (Section 4.5) overrides the heuristics.  A task
        // pinned to a crashed machine can never run anywhere; surface that
        // rather than stalling the simulation.
        if (ft_enabled() && !ft_->injector().machine_up(task->placement))
          throw UnrecoverableError(
              "task '" + task->name() + "' is pinned to machine " +
              std::to_string(task->placement) + ", which has crashed");
        m = free[static_cast<std::size_t>(task->placement)] > 0
                ? task->placement
                : -1;
      } else {
        m = pick_machine_for_task(directory_, st(task).objects, free, locality,
                                  st(task).creator_machine, why);
        if (why != nullptr && m >= 0)
          tracer_.instant(obs::Subsystem::kSched, "sched.place", task->id(),
                          m, static_cast<double>(explain.candidates.size()),
                          format_placement_explain(explain));
      }
      if (m < 0) continue;
      ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
      assign(task, m);
      progress = true;
      break;  // ready_ and free context counts changed; restart the scan
    }
  }
  // Speculation rides on leftovers: only after every ready task that could
  // be placed has been placed do idle contexts take speculative work.
  try_spec_dispatch();
}

void SimEngine::assign(TaskNode* task, MachineId m) {
  Machine& mach = machines_[m];
  JADE_ASSERT(mach.free_contexts > 0);
  --mach.free_contexts;
  SimTask& t = st(task);
  t.machine = m;
  t.dispatched = sim_.now();
  task->assigned_machine = m;
  if (m != t.creator_machine) ++stats_.tasks_migrated;
  queue_wait_hist_->observe(sim_.now() - t.created);
  tracer_.instant(obs::Subsystem::kEngine, "task.dispatched", task->id(), m);
  if (tracer_.enabled())
    tracer_.span_begin(obs::Subsystem::kEngine, "task", task->id(), m,
                       task->name());
  JADE_TRACE("t=" << sim_.now() << " dispatch " << task->name()
                  << " -> machine " << m << " (" << mach.desc.name << ")");
  t.process = sim_.spawn(task->name(), [this, task] { task_process(task); });
}

// --- task lifecycle --------------------------------------------------------

void SimEngine::task_process(TaskNode* task) {
  SimTask& t = st(task);
  serializer_.task_started(task);
  ++active_tasks_;
  t.attempt.charge_base = task->charged_work;

  // Prefetch: move/copy every object named by an immediate right to this
  // machine; all transfers go out at once so their latencies overlap
  // (and overlap other tasks' execution — latency hiding, Figure 7(f)).
  // Deferred read declarations ride along as non-blocking hints: their
  // payloads are resident (or in flight) before the task's first with-cont,
  // but task start does not wait for them.
  if (!cluster_.shared_memory()) {
    std::vector<FetchItem> items;
    for (const DeclRecord* rec : task->ordered_records()) {
      if (rec->immediate != 0) {
        items.push_back(
            {rec->obj, (rec->immediate & kExclusiveBits) != 0, true});
      } else if (sched_.optimized_comm &&
                 (rec->deferred & access::kRead) &&
                 (rec->deferred & kExclusiveBits) == 0) {
        items.push_back({rec->obj, false, false});
      }
    }
    park_until_fetched(t, fetch_objects(t, std::move(items)));
  }

  occupy(t, machines_[t.machine].runtime_free_until,
         cluster_.task_dispatch_overhead);
  t.body_start = sim_.now();
  tracer_.instant(obs::Subsystem::kEngine, "task.body_start", task->id(),
                  t.machine);
  run_body(task);
  finish_task(task);
}

void SimEngine::finish_task(TaskNode* task) {
  SimTask& t = st(task);
  JADE_TRACE("t=" << sim_.now() << " complete " << task->name()
                  << " on machine " << t.machine);
  exec_hist_->observe(sim_.now() - t.body_start);
  tracer_.span_end(obs::Subsystem::kEngine, "task", task->id(), t.machine,
                   task->charged_work);
  task->body = nullptr;  // only now is a re-execution impossible
  t.attempt.snapshots.clear();
  if (ft_enabled()) {
    // Stray fault-layer events (a final heartbeat round, a scheduled crash
    // that no longer matters) may advance the clock after the program is
    // done; the program's finish time is the last task completion.
    stats_.finish_time = sim_.now();
    if (task->is_root()) root_done_ = true;
  }
  --active_tasks_;
  serializer_.complete_task(task);
  post_serializer();
  // Hand every held commute token on, in acquisition order.
  commute_.release_all(task, [this](TaskNode* next) { resume(next); });
  release_context(t);
  maybe_release_throttled();
}

void SimEngine::occupy(SimTask& t, SimTime& lane_free_until,
                       SimTime seconds) {
  if (seconds <= 0) return;
  const SimTime end = std::max(sim_.now(), lane_free_until) + seconds;
  lane_free_until = end;
  t.wait = Wait::kCpu;
  sim_.resume_at(sim_.current(), end);
  sim_.park();
  t.wait = Wait::kNone;
}

void SimEngine::release_context(SimTask& t) {
  Machine& m = machines_[t.machine];
  if (!m.context_waiters.empty()) {
    // The slot passes directly to a task re-entering after a block.
    TaskNode* next = m.context_waiters.front();
    m.context_waiters.pop_front();
    resume(next);
  } else if (!ft_enabled() || ft_->injector().machine_up(t.machine)) {
    // A dead machine's slot never re-enters the free pool: the dispatcher
    // must not place new work there.
    ++m.free_contexts;
    try_dispatch();
  }
}

void SimEngine::reacquire_context(SimTask& t) {
  Machine& m = machines_[t.machine];
  if (ft_enabled() && !ft_->injector().machine_up(t.machine)) {
    // A non-restartable task re-entering on its crashed machine: it must
    // still run to completion (its spawns already escaped), so it executes
    // on the ghost of the machine without slot bookkeeping.
    return;
  }
  if (m.free_contexts > 0) {
    --m.free_contexts;
    return;
  }
  JADE_TRACE("t=" << sim_.now() << " " << t.node->name()
                  << " waits for a context on machine " << t.machine);
  m.context_waiters.push_back(t.node);
  park_inactive(t, Wait::kContext);
}

void SimEngine::park_inactive(SimTask& t, Wait kind) {
  t.wait = kind;
  --active_tasks_;
  // If this park leaves no runnable task, a suspended creator is the only
  // source of progress and must be released now.
  maybe_release_throttled();
  sim_.park();
  ++active_tasks_;
  t.wait = Wait::kNone;
}

void SimEngine::maybe_release_throttled() {
  if (throttled_.empty()) return;
  if (active_tasks_ == 0) {
    // Nothing else is runnable: a suspended creator is the only source of
    // progress and must run even if its gate (global or tenant) is still
    // up — the deadlock-freedom escape.  One is enough.
    TaskNode* t = throttled_.front();
    throttled_.pop_front();
    resume(t);
    return;
  }
  const bool global_clear =
      !throttle_.enabled() || throttle_.backlog_drained(serializer_.backlog());
  if (!global_clear) return;
  // FIFO among the eligible: a creator parked on its tenant's live-task
  // window stays parked until that window drains (or the tenant is
  // cancelled / unlimited — it then parked on the global gate alone).
  for (auto it = throttled_.begin(); it != throttled_.end();) {
    TenantCtl* ctl = (*it)->tenant();
    const bool tenant_clear =
        ctl == nullptr || cancelled(ctl) ||
        ctl->quota_hi.load(std::memory_order_relaxed) == 0 ||
        throttle_.tenant_drained(*ctl);
    if (!tenant_clear) {
      ++it;
      continue;
    }
    TaskNode* t = *it;
    it = throttled_.erase(it);
    resume(t);
  }
}

// --- TaskContext backend ---------------------------------------------------

void SimEngine::spawn(TaskNode* parent,
                      const std::vector<AccessRequest>& requests,
                      TaskContext::BodyFn body, std::string name,
                      MachineId placement, TenantCtl* tenant) {
  // A speculative body must not create tasks: creation escapes the
  // snapshot-isolated attempt, so the normal re-run spawns for real.  A
  // cancelled tenant's creators unwind at the next spawn instead of
  // flooding more work into the backlog; the unwind is caught in
  // task_process, which completes the task normally.
  check_spawn(parent);
  SimTask& pt = st(parent);
  TenantCtl* pctl = parent->tenant();
  // Spawning makes the parent unkillable *before* it can park below: a
  // replay of a task that already created a child would create it twice.
  pt.attempt.restartable = false;
  // Executing the withonly construct costs the creator time (building the
  // specification, inserting queue records) on the runtime lane.
  occupy(pt, machines_[pt.machine].runtime_free_until,
         cluster_.task_create_overhead);

  TaskNode* task =
      serializer_.create_task(parent, requests, std::move(body),
                              std::move(name), tenant);
  task->placement = placement;
  sim_tasks_.emplace_back();
  SimTask& t = sim_tasks_.back();
  t.node = task;
  t.creator_machine = pt.machine;
  t.created = sim_.now();
  for (const AccessRequest& req : requests)
    if (req.add_immediate | req.add_deferred) t.objects.push_back(req.obj);
  task->engine_data = &t;
  if (spec_.enabled()) spec_.offer(task);
  if (tracer_.enabled())
    tracer_.instant(obs::Subsystem::kEngine, "task.created", task->id(),
                    pt.machine, 0, task->name());
  post_serializer();

  const bool global_gate = throttle_.should_throttle(serializer_.backlog());
  const bool tenant_gate = pctl != nullptr && throttle_.tenant_gated(*pctl);
  if ((global_gate || tenant_gate) && active_tasks_ > 1) {
    // Excess concurrency: suspend the creating task (Figure 7(e)) until the
    // unstarted backlog drains — globally or, for a quota-bearing tenant,
    // until its own live-task window drains.  Skipped when this creator is
    // the only active task — then it is the sole source of progress.
    ++stats_.throttle_suspensions;
    JADE_TRACE("t=" << sim_.now() << " throttle suspends " << parent->name()
                    << " (backlog=" << serializer_.backlog() << ")");
    trace_throttle("throttle.suspend", parent);
    throttled_.push_back(parent);
    release_context(pt);
    park_inactive(pt, Wait::kThrottle);
    reacquire_context(pt);
    trace_throttle("throttle.resume", parent);
    if (cancelled(pctl)) throw TenantUnwind{};
  }
}

void SimEngine::with_cont(TaskNode* task,
                          const std::vector<AccessRequest>& requests) {
  // A with-cont mutates the serializer's queues; a speculation must not.
  if (task->speculating()) throw SpeculationUnwind{};
  SimTask& t = st(task);
  // A with-cont retires or converts rights — visible to other tasks the
  // moment it executes, and not undoable.  The task rides out crashes.
  t.attempt.restartable = false;
  const bool must_block = serializer_.update_spec(task, requests);
  post_serializer();
  // no_cm hands the exclusivity token to the next waiting commuter now
  // rather than at completion.
  const auto resume_next = [this](TaskNode* next) { resume(next); };
  for (const AccessRequest& req : requests)
    if (req.remove & access::kCommute)
      commute_.release_to(req.obj, task, resume_next);
  if (must_block) {
    // Release the machine slot while waiting: the tasks we wait on may need
    // it (they precede us in the serial order).
    JADE_TRACE("t=" << sim_.now() << " " << task->name()
                    << " blocks in with-cont");
    release_context(t);
    park_inactive(t, Wait::kUnblock);
    reacquire_context(t);
  }
  fetch_for(t, requests);
}

void SimEngine::fetch_for(SimTask& t,
                          const std::vector<AccessRequest>& reqs) {
  if (cluster_.shared_memory()) return;
  std::vector<FetchItem> items;
  for (const AccessRequest& req : reqs) {
    if (req.add_immediate == 0) continue;
    DeclRecord* rec = t.node->find_record(req.obj);
    if (rec == nullptr || rec->immediate == 0) continue;
    items.push_back({req.obj, (rec->immediate & kExclusiveBits) != 0, true});
  }
  park_until_fetched(t, fetch_objects(t, std::move(items)));
}

void SimEngine::park_until_fetched(SimTask& t, SimTime ready_at) {
  if (ready_at <= sim_.now()) return;
  fetch_wait_hist_->observe(ready_at - sim_.now());
  t.wait = Wait::kFetch;
  sim_.resume_at(sim_.current(), ready_at);
  sim_.park();
  t.wait = Wait::kNone;
}

std::byte* SimEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                    std::uint8_t mode) {
  if (task->speculating())
    return SpeculationExecutor::shadow(spec_.attempt(task), task, obj, mode);
  SimTask& t = st(task);
  const bool must_block = serializer_.acquire(task, obj, mode);
  if (must_block) {
    JADE_TRACE("t=" << sim_.now() << " " << task->name()
                    << " blocks in acquire of obj " << obj);
    release_context(t);
    park_inactive(t, Wait::kUnblock);
    reacquire_context(t);
  }
  if (mode & access::kCommute) {
    TaskNode* holder = commute_.holder(obj);
    if (holder != nullptr && holder != task) {
      // Another commuter holds the object; queue for the token.  The
      // machine slot is released meanwhile — the holder may be later in the
      // serial order and need it.
      JADE_TRACE("t=" << sim_.now() << " " << task->name()
                      << " waits for commute token on obj " << obj);
      release_context(t);
      commute_.enqueue_waiter(obj, task);
      // the releaser hands us the token before resuming us
      park_inactive(t, Wait::kCommute);
      reacquire_context(t);
    } else if (holder == nullptr) {
      commute_.try_acquire(obj, task);
    }
  }
  // A child may have moved the object since our prefetch; re-ensure
  // residence (cheap when it is still here).
  if (!cluster_.shared_memory()) {
    const bool exclusive = (mode & kExclusiveBits) != 0;
    park_until_fetched(t, fetch_objects(t, {{obj, exclusive, true}}));
  }
  // Snapshot before handing out a mutable pointer: if a crash kills this
  // attempt mid-write, the pre-image is restored and the re-execution sees
  // exactly what the first attempt saw.  Taken here — after serializer
  // admission and commute-token acquisition — so a commuter snapshots the
  // object *with its predecessors' updates applied*.
  if (ft_enabled() && st(task).attempt.restartable && (mode & kExclusiveBits))
    ft_->snapshot_before_write(st(task).attempt, obj);
  // The write makes every other copy stale: drop replicas that raced in via
  // prefetch and open a new data version (after the snapshot, so a killed
  // attempt restores the pre-write version).
  if (!cluster_.shared_memory() && (mode & kExclusiveBits))
    coherence_->first_write_invalidate(st(task).machine, obj,
                                       st(task).attempt.dirtied);
  return directory_.data(obj);
}

void SimEngine::charge(TaskNode* task, double units) {
  JADE_ASSERT_MSG(units >= 0, "charge() units must be non-negative");
  SimTask& t = st(task);
  task->charged_work += units;
  stats_.total_charged_work += units;
  Machine& m = machines_[t.machine];
  const SimTime seconds = units / m.desc.ops_per_second;
  if (seconds <= 0) return;
  m.busy_seconds += seconds;
  occupy(t, m.cpu_free_until, seconds);
}

MachineId SimEngine::machine_of(TaskNode* task) const {
  return static_cast<const SimTask*>(task->engine_data)->machine;
}

// --- object motion (store/coherence.hpp does the protocol) -----------------

void SimEngine::ensure_recoverable(ObjectId obj) const {
  if (!directory_.lost(obj)) return;
  throw UnrecoverableError(
      "object " + std::to_string(obj) + " ('" + object_info(obj).name +
      "') is unrecoverable: its only copy died with machine " +
      std::to_string(directory_.owner(obj)) +
      " and stable storage is disabled");
}

SimTime SimEngine::fetch_objects(SimTask& t, std::vector<FetchItem> items) {
  if (cluster_.shared_memory() || items.empty()) return sim_.now();

  if (ft_enabled()) {
    // Wait until every blocking item's owner is up (or a local replica
    // satisfies its read).  Waking from one park can find another item's
    // owner newly crashed, so loop until a full pass makes no park.
    bool parked = true;
    while (parked) {
      parked = false;
      for (const FetchItem& item : items) {
        if (!item.blocking) continue;
        ensure_recoverable(item.obj);
        const MachineId owner = directory_.owner(item.obj);
        if (ft_->injector().machine_up(owner)) continue;
        if (!item.exclusive && directory_.present(item.obj, t.machine))
          continue;
        JADE_TRACE("t=" << sim_.now() << " " << t.node->name()
                        << " waits for recovery of obj " << item.obj
                        << " (owner " << owner << " is down)");
        ft_->add_recovery_waiter(owner, t.node);
        park_inactive(t, Wait::kRecovery);
        parked = true;
        break;
      }
    }
    // Prefetch hints are best-effort: drop the ones recovery would have to
    // wait for.
    std::erase_if(items, [this](const FetchItem& item) {
      if (item.blocking) return false;
      return directory_.lost(item.obj) ||
             !ft_->injector().machine_up(directory_.owner(item.obj));
    });
  }

  // After the fault pre-pass every remaining transfer resolves without
  // parking (no time passes between here and the protocol's scheduling).
  return coherence_->fetch(t.machine, std::move(items));
}

// --- run -------------------------------------------------------------------

void SimEngine::run(std::function<void(TaskContext&)> root_body) {
  // Sequential runs on one reused engine: reset the scheduling state for a
  // fresh graph.  Objects, the directory and replicas persist; the virtual
  // clock stays monotonic across runs.  Fault injection schedules its event
  // sequence against a single run and cannot be replayed.
  if (ran_ && ft_enabled())
    throw ConfigError(
        "a fault-injected SimEngine supports a single run(); construct a "
        "fresh Runtime per fault experiment");
  begin_run();
  stats_.machine_busy_seconds.assign(machines_.size(), 0.0);
  if (ran_) {
    sim_tasks_.clear();
    ready_.clear();
    to_unblock_.clear();
    throttled_.clear();
    spec_.reset();
    for (Machine& m : machines_) {
      JADE_ASSERT_MSG(m.context_waiters.empty(),
                      "engine reuse with parked context waiters");
      m.free_contexts = sched_.contexts_per_machine;
      m.busy_seconds = 0;
      // cpu_free_until / runtime_free_until are kept: virtual time is
      // monotonic across runs.
    }
    active_tasks_ = 0;
    root_done_ = false;
  }
  ran_ = true;

  // The original task starts on machine 0, occupying one of its contexts
  // (Figure 7(a): the first machine runs the main task).
  JADE_ASSERT(machines_[0].free_contexts > 0);
  --machines_[0].free_contexts;
  sim_tasks_.emplace_back();
  SimTask& rt = sim_tasks_.back();
  rt.node = serializer_.root();
  rt.machine = 0;
  rt.creator_machine = 0;
  rt.attempt.restartable = false;  // the original task; machine 0 never
                                   // crashes
  serializer_.root()->engine_data = &rt;
  serializer_.root()->assigned_machine = 0;

  rt.process = sim_.spawn("root", [this, body = std::move(root_body)] {
    ++active_tasks_;
    TaskNode* root = serializer_.root();
    if (tracer_.enabled()) {
      tracer_.instant(obs::Subsystem::kEngine, "task.created", root->id(), 0,
                      0, root->name());
      tracer_.instant(obs::Subsystem::kEngine, "task.dispatched", root->id(),
                      0);
      tracer_.span_begin(obs::Subsystem::kEngine, "task", root->id(), 0,
                         root->name());
      tracer_.instant(obs::Subsystem::kEngine, "task.body_start", root->id(),
                      0);
    }
    TaskContext ctx(this, root);
    body(ctx);
    finish_task(root);
  });

  if (ft_enabled()) ft_->schedule_events();

  try {
    sim_.run();
  } catch (...) {
    end_run();  // a failed run publishes its counters too
    throw;
  }

  JADE_ASSERT_MSG(serializer_.outstanding() == 0,
                  "simulation drained with outstanding tasks");
  if (!ft_enabled()) stats_.finish_time = sim_.now();
  if (faulty_net_ != nullptr) {
    stats_.messages_dropped = faulty_net_->messages_dropped();
    stats_.message_retries = faulty_net_->message_retries();
  }
  for (std::size_t m = 0; m < machines_.size(); ++m)
    stats_.machine_busy_seconds[m] = machines_[m].busy_seconds;
  end_run();
}

// --- speculative execution (sched/speculation.hpp does the protocol) --------

void SimEngine::try_spec_dispatch() {
  if (!spec_.enabled()) return;
  const bool locality = sched_.locality && !cluster_.shared_memory();
  std::vector<int> free;
  while (spec_.can_start() && count_free_contexts(free) > 0) {
    TaskNode* task = spec_.launch([&](TaskNode* cand) -> MachineId {
      const SimTask& c = st(cand);
      if (ft_enabled() && spec_at_risk(c)) return -1;
      return pick_machine_for_task(directory_, c.objects, free, locality,
                                   c.creator_machine);
    });
    if (task == nullptr) return;
    const MachineId m = task->assigned_machine;
    Machine& mach = machines_[static_cast<std::size_t>(m)];
    JADE_ASSERT(mach.free_contexts > 0);
    --mach.free_contexts;
    SimTask& t = st(task);
    t.machine = m;
    t.dispatched = sim_.now();
    JADE_TRACE("t=" << sim_.now() << " speculate " << task->name()
                    << " -> machine " << m);
    t.process = sim_.spawn(task->name(), [this, task] { spec_process(task); });
  }
}

void SimEngine::spec_process(TaskNode* task) {
  SimTask& t = st(task);
  occupy(t, machines_[t.machine].runtime_free_until,
         cluster_.task_dispatch_overhead);
  t.body_start = sim_.now();
  spec_.body_finished(task, run_speculative_body(task));
  release_context(t);
  if (task->state() == TaskState::kReady) {
    // The serializer enabled the task while the body ran; the queued
    // decision was a no-op then, so decide here, at the body's end.
    decide_speculation(task);
    post_serializer();
  }
}

void SimEngine::decide_speculation(TaskNode* task) {
  SimTask& t = st(task);
  const SpeculationExecutor::Outcome outcome =
      spec_.decide(task, ft_enabled() && spec_at_risk(t));
  if (outcome == SpeculationExecutor::Outcome::kPending) return;
  end_speculation(t);
  if (outcome == SpeculationExecutor::Outcome::kCommitted) {
    queue_wait_hist_->observe(t.dispatched - t.created);
    exec_hist_->observe(sim_.now() - t.body_start);
    if (ft_enabled()) stats_.finish_time = sim_.now();
    maybe_release_throttled();
  }
  // The caller dispatches the fallout (post_serializer).
}

bool SimEngine::spec_at_risk(const SimTask& t) const {
  return std::any_of(t.objects.begin(), t.objects.end(), [this](ObjectId obj) {
    return directory_.lost(obj) ||
           !ft_->injector().machine_up(directory_.owner(obj));
  });
}

void SimEngine::end_speculation(SimTask& t) {
  t.process = nullptr;
  t.machine = -1;
  t.wait = Wait::kNone;
  // An already-enabled task re-enters the normal dispatch path; a pending
  // one routes through on_task_ready normally now its flag is down.
  if (t.node->state() == TaskState::kReady) ready_.push_back(t.node);
}

void SimEngine::abort_speculations_on(MachineId m) {
  if (!spec_.enabled()) return;
  // Creation order (deterministic): sim_tasks_ appends at spawn.  The
  // shadow buffers of a resident speculation die with the machine — even a
  // finished body's, since its writeback never happened.
  for (SimTask& t : sim_tasks_) {
    if (!t.node->speculating() || t.machine != m) continue;
    Process* p = t.process;
    spec_.abort(t.node);
    end_speculation(t);
    if (p != nullptr && p->state() != Process::State::kDone) sim_.abort(p);
  }
}

std::vector<std::byte> SimEngine::read_bytes(ObjectId obj) {
  return read_storage(obj);
}

void SimEngine::publish_bytes(TaskNode* task, ObjectId obj,
                              std::span<const std::byte> bytes) {
  std::copy(bytes.begin(), bytes.end(), directory_.data(obj));
  // Stale replicas drop and the data version advances the same way a
  // normal first write's invalidation does.
  if (!cluster_.shared_memory())
    coherence_->first_write_invalidate(st(task).machine, obj,
                                       st(task).attempt.dirtied);
}

// --- fault tolerance (ft/recovery_coordinator.hpp does the protocol) -------

void SimEngine::abort_attempt_execution(TaskNode* task) {
  SimTask& t = st(task);
  Process* p = t.process;
  const bool started = p->state() != Process::State::kCreated;
  if (started) {
    // Undo the wait-specific bookkeeping before aborting the process.
    switch (t.wait) {
      case Wait::kFetch:
      case Wait::kCpu:
        // Self-resume pending (becomes a no-op once aborted); these waits
        // count as active.
        --active_tasks_;
        break;
      case Wait::kUnblock: {
        auto it = std::find(to_unblock_.begin(), to_unblock_.end(), task);
        if (it != to_unblock_.end()) to_unblock_.erase(it);
        break;
      }
      case Wait::kCommute:
        commute_.remove_waiter(task);
        break;
      case Wait::kContext: {
        auto& waiters =
            machines_[static_cast<std::size_t>(t.machine)].context_waiters;
        auto it = std::find(waiters.begin(), waiters.end(), task);
        JADE_ASSERT(it != waiters.end());
        waiters.erase(it);
        break;
      }
      case Wait::kRecovery:
        ft_->remove_recovery_waiter(task);
        break;
      case Wait::kThrottle:
      case Wait::kNone:
        // Restartable tasks never spawn, so they never throttle-park; and a
        // parked process always has a wait kind.
        JADE_ASSERT_MSG(false, "killed task in an impossible wait state");
    }
  }
  // Hand held commute tokens to the next waiters, newest first.  (A waiter
  // that is itself being killed in this sweep gets its resume abandoned and
  // the token released again when its own kill runs.)
  while (!commute_.held(task).empty()) {
    const ObjectId obj = commute_.held(task).back();
    TaskNode* next = nullptr;
    const bool released = commute_.release(obj, task, &next);
    JADE_ASSERT(released);
    if (next != nullptr) resume(next);
  }
  // Rewind the serializer: a started attempt is kRunning (task_started is
  // the first thing a task process does); an assigned-but-unstarted one is
  // still kReady and needs no rewind.
  if (started) serializer_.abort_attempt(task);
  sim_.abort(p);

  t.process = nullptr;
  t.machine = -1;
  t.wait = Wait::kNone;
  task->assigned_machine = -1;
}

}  // namespace jade
