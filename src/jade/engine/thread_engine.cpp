#include "jade/engine/thread_engine.hpp"

#include <algorithm>
#include <optional>

#include "jade/sched/policies.hpp"
#include "jade/support/error.hpp"
#include "jade/support/log.hpp"

namespace jade {

namespace {
/// Thrown inside a blocked task to unwind it when another task has already
/// failed; never escapes the engine.
struct EngineAborting : EngineUnwind {};
}  // namespace

thread_local ThreadEngine* ThreadEngine::tls_engine_ = nullptr;
thread_local ThreadEngine::ThreadSlot* ThreadEngine::tls_slot_ = nullptr;
thread_local SpeculationExecutor::Attempt* ThreadEngine::tls_spec_ = nullptr;

ThreadEngine::TlsBinding::TlsBinding(ThreadEngine* engine, ThreadSlot* slot)
    : prev_engine_(tls_engine_), prev_slot_(tls_slot_) {
  tls_engine_ = engine;
  tls_slot_ = slot;
}

ThreadEngine::TlsBinding::~TlsBinding() {
  tls_engine_ = prev_engine_;
  tls_slot_ = prev_slot_;
}

ThreadEngine::ThreadEngine(int workers, ThrottleConfig throttle,
                           SpecConfig spec)
    : Engine(throttle),
      workers_requested_(workers),
      spec_(spec, serializer_, *this, stats_, tracer_) {
  JADE_ASSERT_MSG(workers >= 1, "ThreadEngine needs at least one worker");
}

ThreadEngine::~ThreadEngine() {
  stop_.store(true, std::memory_order_seq_cst);
  unpark_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

// --- parking idle threads --------------------------------------------------

void ThreadEngine::wake_one() {
  // seq_cst pairs with the idle thread's (register, then re-check
  // ready_count_) sequence: either we see it registered here, or it sees
  // our ready_count_ increment there.  Zero idle threads is the hot case
  // and costs one load.
  if (idle_count_.load(std::memory_order_seq_cst) == 0) return;
  ThreadSlot* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (!idle_stack_.empty()) {
      victim = idle_stack_.back();
      idle_stack_.pop_back();
      idle_count_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  if (victim) victim->parker.unpark();
}

void ThreadEngine::unpark_all() {
  std::vector<ThreadSlot*> grabbed;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    grabbed.swap(idle_stack_);
    idle_count_.store(0, std::memory_order_seq_cst);
  }
  for (ThreadSlot* slot : grabbed) slot->parker.unpark();
}

bool ThreadEngine::idle_cancel(ThreadSlot* slot) {
  std::lock_guard<std::mutex> lock(idle_mu_);
  auto it = std::find(idle_stack_.begin(), idle_stack_.end(), slot);
  if (it == idle_stack_.end()) return false;
  idle_stack_.erase(it);
  idle_count_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

void ThreadEngine::idle_park(ThreadSlot* slot, bool drain) {
  // Register first, re-check after: a producer either finds us on the idle
  // stack (and unparks us) or published its work before our re-check.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_stack_.push_back(slot);
    idle_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  bool wake_now = stop_.load(std::memory_order_seq_cst) ||
                  ready_count_.load(std::memory_order_seq_cst) > 0 ||
                  batched_.load(std::memory_order_seq_cst) > 0 ||
                  slot->runnable_count.load(std::memory_order_seq_cst) > 0 ||
                  (spec_.enabled() &&
                   spec_epoch_.load(std::memory_order_seq_cst) !=
                       slot->spec_seen_epoch) ||
                  (drain && drain_exit_.load(std::memory_order_seq_cst));
  if (wake_now && idle_cancel(slot)) return;
  // Either nothing to do, or a producer already claimed us and an unpark is
  // in flight — park consumes it and we rescan immediately.
  if (!wake_now) wake_throttled_if_all_idle();
  ++slot->parks;
  slot->parker.park();
}

bool ThreadEngine::all_idle_but(int self) const {
  const int idle = idle_count_.load(std::memory_order_seq_cst) + self;
  return idle >= engine_threads_.load(std::memory_order_seq_cst) &&
         ready_count_.load(std::memory_order_seq_cst) == 0;
}

void ThreadEngine::wake_throttled_if_all_idle() {
  // The caller registered idle before this check, and a creator registers
  // in throttle_waiters_ before its own give-up check (both seq_cst), so
  // one of the two sees the other.
  if (throttle_waiters_.load(std::memory_order_seq_cst) == 0 ||
      !all_idle_but(0))
    return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tenant, w] : throttled_) wake_locked(w->creator);
}

// --- dispatch --------------------------------------------------------------

void ThreadEngine::on_task_ready(TaskNode* task) {
  // Called with mu_ held, from inside a serializer call this engine made —
  // always on a bound engine thread.  The task lands in that thread's own
  // deque (LIFO locality for dependence chains); one idle thread, if any,
  // is woken to steal.
  ThreadSlot* slot = tls_slot_;
  JADE_ASSERT_MSG(tls_engine_ == this && slot != nullptr,
                  "serializer callback on an unbound thread");
  if (task->speculating()) {
    // The task already ran (or is running) speculatively; it needs a
    // commit/abort decision, not a dispatch.
    spec_.note_enabled(task);
    return;
  }
  slot->deque.push(task);
  slot->max_queue_depth =
      std::max(slot->max_queue_depth, slot->deque.size_estimate());
  ready_count_.fetch_add(1, std::memory_order_seq_cst);
  if (slot->local_grants > 0) {
    --slot->local_grants;  // the pushing thread will pop this one itself
    return;
  }
  wake_one();
}

void ThreadEngine::on_task_unblocked(TaskNode* task) {
  unblocked_.insert(task);
  wake_locked(task);
}

TaskNode* ThreadEngine::find_task(ThreadSlot* self) {
  if (std::optional<TaskNode*> task = self->deque.pop()) {
    ready_count_.fetch_sub(1, std::memory_order_seq_cst);
    return *task;
  }
  const int n = static_cast<int>(slots_.size());
  // Two sweeps: ready_count_ > 0 after a failed sweep means an enqueue or a
  // hand-off is in flight; one yield-and-retry usually catches it.  Still
  // nothing → caller parks (its registered re-check closes the race).
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int k = 1; k < n; ++k) {
      ThreadSlot* victim = slots_[static_cast<std::size_t>(
                                      (self->index + k) % n)]
                               .get();
      if (std::optional<TaskNode*> task = victim->deque.steal()) {
        ready_count_.fetch_sub(1, std::memory_order_seq_cst);
        ++self->stolen;
        if (tracer_.enabled())
          tracer_.instant(obs::Subsystem::kEngine, "steal", (*task)->id(),
                          self->machine, victim->machine);
        return *task;
      }
    }
    if (ready_count_.load(std::memory_order_seq_cst) <= 0) break;
    std::this_thread::yield();
  }
  return nullptr;
}

bool ThreadEngine::spin_for_work(ThreadSlot* slot) {
  constexpr int kIdleSpins = 32;
  for (int i = 0; i < kIdleSpins; ++i) {
    if (stop_.load(std::memory_order_acquire) ||
        ready_count_.load(std::memory_order_seq_cst) > 0 ||
        slot->runnable_count.load(std::memory_order_seq_cst) > 0)
      return true;
    std::this_thread::yield();
  }
  return false;
}

// --- threads and fibers ----------------------------------------------------

bool ThreadEngine::slot_done(const ThreadSlot* slot) const {
  return slot->index == 0 ? drain_exit_.load() : stop_.load();
}

void ThreadEngine::run_fibers(ThreadSlot* slot, std::unique_ptr<Fiber> first) {
  std::unique_ptr<Fiber> next = std::move(first);
  for (;;) {
    if (next == nullptr) next = take_runnable(slot);
    if (next == nullptr) {
      const bool done = slot_done(slot);
      const bool in_root_body = slot->index == 0 && !root_returned_;
      if (in_root_body || (done && slot->waiting_fibers > 0)) {
        wait_runnable(slot);
        continue;
      }
      if (done) return;
      // A task that parked left a spare (reserve_spare_fiber); otherwise
      // this is the thread's first loop, or it reuses the fiber whose loop
      // ended to let a woken one resume.
      next = std::move(slot->spare);
      if (next == nullptr)
        next = slot->fibers.acquire(&ThreadEngine::loop_entry, slot);
    }
    Fiber* fiber = next.get();
    slot->current = std::move(next);
    fiber->resume();
    // Still ours: the fiber's entry returned.  Moved out: its task parked.
    if (slot->current != nullptr)
      slot->fibers.release(std::move(slot->current));
  }
}

void ThreadEngine::loop_entry(void* slot) {
  auto* s = static_cast<ThreadSlot*>(slot);
  s->engine->worker_loop(s);
}

void ThreadEngine::worker_loop(ThreadSlot* slot) {
  const bool drain = slot->index == 0;
  for (;;) {
    if (slot_done(slot)) return;
    // A woken fiber finishes its task here, then continues in its own loop
    // frames; this fiber's stack is empty, so it ends.
    if (slot->runnable_count.load(std::memory_order_acquire) > 0) return;
    if (TaskNode* task = find_task(slot)) {
      execute(task, slot);
      continue;
    }
    // No ready work: run ahead speculatively rather than going idle.
    if (try_speculate(slot)) continue;
    if (!drain && spin_for_work(slot)) continue;
    // A creator may be busy outside the engine while its batch waits.
    if (link_stranded_batches()) continue;
    idle_park(slot, drain);
  }
}

void ThreadEngine::root_entry(void* engine) {
  auto* self = static_cast<ThreadEngine*>(engine);
  TaskNode* root = self->serializer_.root();
  bool root_failed = false;
  try {
    TaskContext ctx(self, root);
    (*self->root_body_)(ctx);
  } catch (const EngineAborting&) {
    root_failed = true;
  } catch (...) {
    self->record_error(std::current_exception());
    root_failed = true;
  }
  // The caller's thread now drains the pool as one more worker.
  self->root_returned_ = true;
  self->engine_threads_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(self->mu_);
  // The root never passes through execute(): return any commute tokens its
  // body took, or commuting tasks would wait on them forever.
  const auto wake = [self](TaskNode* next) { self->wake_locked(next); };
  self->commute_.release_all(root, wake);
  if (root_failed) {
    self->drop_batch(tls_slot_);
  } else {
    self->link_batch_locked(tls_slot_);
    self->serializer_.complete_task(root);
    self->drain_spec_decides_locked(tls_slot_);
    self->note_drained_locked();
  }
}

void ThreadEngine::record_error(std::exception_ptr err) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = err;
    // Every parked task unwinds (EngineAborting) before the threads exit.
    while (!parked_.empty()) wake_locked(parked_.begin()->first);
  }
  drain_exit_.store(true, std::memory_order_seq_cst);
  unpark_all();  // the drain thread re-checks drain_exit_ before parking
}

bool ThreadEngine::note_drained_locked() {
  // outstanding() also touches 0 while the root is still creating tasks;
  // the run is over only once the root has completed as well.
  if (serializer_.root()->state() != TaskState::kCompleted ||
      serializer_.outstanding() != 0)
    return false;
  drain_exit_.store(true, std::memory_order_seq_cst);
  return true;
}

void ThreadEngine::enable_tracing(const ObsConfig& cfg) {
  Engine::enable_tracing(cfg);
  trace_epoch_ = std::chrono::steady_clock::now();
}

void ThreadEngine::run(std::function<void(TaskContext&)> root_body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A previous run joined its pool and left the scheduling state
    // quiescent.  Reset it for a fresh graph (a no-op on the first run);
    // objects and buffers persist (allocate-once semantics).
    JADE_ASSERT_MSG(workers_.empty(),
                    "run() re-entered while a previous run is active");
    begin_run();
    unblocked_.clear();
    spec_.reset();
    first_error_ = nullptr;
    ready_count_.store(0, std::memory_order_seq_cst);
    batched_.store(0, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> idle(idle_mu_);
      idle_stack_.clear();
      idle_count_.store(0, std::memory_order_seq_cst);
    }
    root_returned_ = false;
    stop_.store(false, std::memory_order_seq_cst);
    drain_exit_.store(false, std::memory_order_seq_cst);
  }
  // Every slot exists before any thread starts; after this no thread is
  // created until the next run().  Each worker maps its first fiber itself.
  slots_.clear();
  for (int i = 0; i <= workers_requested_; ++i)
    slots_.push_back(std::make_unique<ThreadSlot>(this, i, i == 0 ? 0 : i - 1));
  ThreadSlot* root_slot = slots_.front().get();
  std::unique_ptr<Fiber> root_fiber =
      root_slot->fibers.acquire(&ThreadEngine::root_entry, this);
  root_body_ = &root_body;
  engine_threads_.store(workers_requested_, std::memory_order_seq_cst);
  serializer_.root()->assigned_machine = 0;
  workers_.reserve(static_cast<std::size_t>(workers_requested_));
  for (int i = 1; i <= workers_requested_; ++i) {
    ThreadSlot* slot = slots_[static_cast<std::size_t>(i)].get();
    workers_.emplace_back([this, slot] {
      TlsBinding bind(this, slot);
      try {
        run_fibers(slot, nullptr);
      } catch (...) {
        record_error(std::current_exception());
      }
    });
  }

  // The caller's thread is the original task (Figure 7(a)); afterwards it
  // drains the pool as one more stealing worker.
  {
    TlsBinding bind(this, root_slot);
    try {
      run_fibers(root_slot, std::move(root_fiber));
    } catch (...) {
      record_error(std::current_exception());  // the pool still joins
    }
  }
  root_body_ = nullptr;
  stop_.store(true, std::memory_order_seq_cst);
  unpark_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();

  // Fold the per-thread stat cells now that every owner thread is joined.
  std::vector<std::uint64_t> executed(
      static_cast<std::size_t>(workers_requested_), 0);
  std::vector<std::uint64_t> stolen(executed.size(), 0);
  std::vector<std::size_t> depth(executed.size(), 0);
  for (const auto& s : slots_) {
    stats_.total_charged_work += s->charged;
    stats_.tasks_stolen += s->stolen;
    stats_.worker_parks += s->parks;
    stats_.fiber_parks += s->fiber_parks;
    const auto m = static_cast<std::size_t>(s->machine);
    executed[m] += s->executed;
    stolen[m] += s->stolen;
    depth[m] = std::max(depth[m], s->max_queue_depth);
  }
  for (std::size_t m = 0; m < executed.size(); ++m) {
    const std::string prefix = "engine.worker" + std::to_string(m);
    metrics_.counter(prefix + ".executed").set(executed[m]);
    metrics_.counter(prefix + ".stolen").set(stolen[m]);
    metrics_.gauge(prefix + ".max_queue_depth")
        .set(static_cast<double>(depth[m]));
  }
  end_run();
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadEngine::execute(TaskNode* task, ThreadSlot* slot) {
  // Claiming the task (pop or steal) made this thread its only starter.
  serializer_.task_started(task);
  // Starting a task shrinks the backlog; creators suspended on it watch it.
  // A creator registers in backlog_waiters_ before it re-checks the backlog,
  // and this thread looks for one after its decrement (all seq_cst): either
  // the creator's re-check sees this start, or this thread sees the creator
  // and wakes it under mu_, which the creator holds from re-check to park.
  if (backlog_waiters_.load(std::memory_order_seq_cst) > 0 &&
      throttle_.backlog_drained(serializer_.backlog())) {
    std::lock_guard<std::mutex> lock(mu_);
    wake_cleared_creators_locked(nullptr);
  }
  task->assigned_machine = slot->machine;
  if (tracer_.enabled()) {
    // Work stealing has no directory to score: the "placement" is which
    // thread claimed the task.  The candidates are the thread slots, each
    // under its machine id with its queue depth, so every engine's
    // sched.place event has one shape.
    PlacementExplain explain;
    explain.chosen = slot->machine;
    for (const auto& s : slots_)
      explain.candidates.push_back(
          {s->machine, 0, static_cast<int>(s->deque.size_estimate())});
    tracer_.instant(obs::Subsystem::kSched, "sched.place", task->id(),
                    slot->machine,
                    static_cast<double>(explain.candidates.size()),
                    format_placement_explain(explain));
    tracer_.instant(obs::Subsystem::kEngine, "task.dispatched", task->id(),
                    slot->machine);
    tracer_.span_begin(obs::Subsystem::kEngine, "task", task->id(),
                       slot->machine, task->name());
  }
  JADE_TRACE("exec-start " << task->name());
  bool failed = false;
  try {
    run_body(task);
  } catch (const EngineAborting&) {
    failed = true;  // unwound because another task already failed
  } catch (...) {
    record_error(std::current_exception());
    failed = true;
  }
  task->body = nullptr;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    commute_.release_all(task, [this](TaskNode* next) { wake_locked(next); });
    if (failed) {
      drop_batch(slot);
    } else {
      // The body's last children link ahead of its completion.
      link_batch_locked(slot);
      // Completion retires the task's records; newly enabled tasks land in
      // this thread's deque via on_task_ready, which wakes a stealer for
      // each — except the first, which this thread pops itself on the next
      // find_task (see ThreadSlot::local_grants).
      slot->local_grants = 1;
      serializer_.complete_task(task);
      slot->local_grants = 0;
      drain_spec_decides_locked(slot);
      drained = note_drained_locked();
      // One live task fewer: its tenant's gated creators may resume.
      if (!throttled_.empty() && task->tenant() != nullptr)
        wake_cleared_creators_locked(task->tenant());
    }
  }
  if (drained) unpark_all();  // the drain thread may be parked
  if (failed) return;         // leave incomplete; run() aborts on first_error_
  ++slot->executed;
  tracer_.span_end(obs::Subsystem::kEngine, "task", task->id(), slot->machine,
                   task->charged_work);
  JADE_TRACE("exec-done " << task->name()
             << " backlog=" << slot->deque.size_estimate());
}

// --- waits -----------------------------------------------------------------

void ThreadEngine::reserve_spare_fiber() {
  ThreadSlot* slot = tls_slot_;
  // A parked root body leaves its thread waiting, so it needs no spare.
  const bool in_root_body = slot->index == 0 && !root_returned_;
  if (slot->spare == nullptr && !in_root_body)
    slot->spare = slot->fibers.acquire(&ThreadEngine::loop_entry, slot);
}

void ThreadEngine::park_locked(TaskNode* task,
                               std::unique_lock<std::mutex>& lock,
                               bool commute) {
  // Register, unlock, suspend.  A wake that lands between the unlock and
  // the suspend is harmless: only this thread resumes the fiber, and it
  // can do so only once the fiber has suspended.
  ThreadSlot* slot = tls_slot_;
  Fiber* self = slot->current.get();
  Parked& entry = parked_[task];  // allocates before the fiber moves in
  entry = Parked{slot, std::move(slot->current), commute};
  if (commute) ++commute_waiters_;
  ++slot->waiting_fibers;
  ++slot->fiber_parks;
  JADE_TRACE("park " << task->name());
  lock.unlock();
  self->suspend();
  lock.lock();
  JADE_TRACE("resume " << task->name());
}

void ThreadEngine::wake_locked(TaskNode* task) {
  auto it = parked_.find(task);
  if (it == parked_.end()) return;
  ThreadSlot* owner = it->second.owner;
  if (it->second.commute) --commute_waiters_;
  owner->runnable.push_back(std::move(it->second.fiber));
  parked_.erase(it);
  // Same register-then-recheck pairing as wake_one: the owner re-checks
  // runnable_count after registering idle (idle_park, spin_for_work) or
  // after raising awaits_fiber (wait_runnable).
  owner->runnable_count.fetch_add(1, std::memory_order_seq_cst);
  const bool was_idle =
      idle_count_.load(std::memory_order_seq_cst) > 0 && idle_cancel(owner);
  if (was_idle || owner->awaits_fiber.load(std::memory_order_seq_cst))
    owner->parker.unpark();
}

std::unique_ptr<Fiber> ThreadEngine::take_runnable(ThreadSlot* slot) {
  if (slot->runnable_count.load(std::memory_order_acquire) == 0)
    return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Fiber> fiber = std::move(slot->runnable.front());
  slot->runnable.pop_front();
  slot->runnable_count.fetch_sub(1, std::memory_order_relaxed);
  --slot->waiting_fibers;
  return fiber;
}

void ThreadEngine::wait_runnable(ThreadSlot* slot) {
  slot->awaits_fiber.store(true, std::memory_order_seq_cst);
  while (slot->runnable_count.load(std::memory_order_seq_cst) == 0)
    slot->parker.park();
  slot->awaits_fiber.store(false, std::memory_order_relaxed);
}

void ThreadEngine::wait_unblocked(TaskNode* task,
                                  std::unique_lock<std::mutex>& lock) {
  // Every wait edge points to a record strictly ahead in some queue, so the
  // waits-for graph is acyclic and the unblock always arrives (or the run
  // aborts on first_error_).
  while (unblocked_.erase(task) == 0) {
    if (first_error_) throw EngineAborting{};
    park_locked(task, lock);
  }
}

void ThreadEngine::wait_commute_token(TaskNode* task, ObjectId obj,
                                      std::unique_lock<std::mutex>& lock) {
  // Commuters run in any order but touch the object exclusively.  Note: a
  // task holding a commute accessor must not block on a deferred
  // conversion, or holder and waiter could form a cycle the serial order
  // does not rank (see DESIGN.md).
  TenantCtl* ctl = task->tenant();
  if (cancelled(ctl)) throw TenantUnwind{};
  if (commute_.try_acquire(obj, task)) return;
  if (first_error_) throw EngineAborting{};
  commute_.enqueue_waiter(obj, task);
  // The holder's release hands the token over and wakes this task; a
  // cancellation (notify_external) or the first error wakes it too.
  while (commute_.holder(obj) != task && !first_error_ && !cancelled(ctl))
    park_locked(task, lock, /*commute=*/true);
  if (commute_.holder(obj) != task) commute_.remove_waiter(task);
  // A task that unwinds holding the token returns it at completion.
  if (first_error_) throw EngineAborting{};
  if (cancelled(ctl)) throw TenantUnwind{};
}

bool ThreadEngine::throttle_clear(const ThrottleWait& w) const {
  if (cancelled(w.tenant)) return true;  // the creator unwinds instead
  const bool global_clear =
      !w.global || throttle_.backlog_drained(serializer_.backlog());
  const bool tenant_clear = !w.gated || throttle_.tenant_drained(*w.tenant);
  return global_clear && tenant_clear;
}

void ThreadEngine::wake_cleared_creators_locked(const TenantCtl* tenant) {
  auto range = throttled_.equal_range(tenant);
  if (tenant == nullptr || backlog_waiters_.load() > 0)
    range = {throttled_.begin(), throttled_.end()};
  for (auto it = range.first; it != range.second; ++it)
    if (throttle_clear(*it->second)) wake_locked(it->second->creator);
}

void ThreadEngine::notify_external() {
  std::lock_guard<std::mutex> lock(mu_);
  wake_cleared_creators_locked(nullptr);
  if (commute_waiters_ == 0) return;
  for (auto it = parked_.begin(); it != parked_.end();) {
    const auto cur = it++;  // wake_locked erases cur
    if (cur->second.commute && cancelled(cur->first->tenant()))
      wake_locked(cur->first);
  }
}

// --- batched linking -------------------------------------------------------

void ThreadEngine::link_locked(std::unique_ptr<TaskNode> prepared) {
  TaskNode* task = serializer_.link_task(std::move(prepared));
  if (spec_.enabled() && spec_.offer(task)) {
    // Candidates bypass ready_count_, so run the same register-then-recheck
    // wake protocol by hand: bump the epoch (parking threads re-check it),
    // then unpark one already-parked thread to scan.
    spec_epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake_one();
  }
  if (tracer_.enabled())
    tracer_.instant(obs::Subsystem::kEngine, "task.created", task->id(),
                    machine_of(task->parent()), 0, task->name());
}

void ThreadEngine::link_batch_locked(ThreadSlot* slot) {
  // The owner's own appends are sequenced before this load; another thread
  // got here through batched_, whose increment follows the append.
  if (slot->batch_size.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> guard(slot->batch_mu);
  for (std::unique_ptr<TaskNode>& task : slot->batch)
    link_locked(std::move(task));
  batched_.fetch_sub(static_cast<std::int64_t>(slot->batch.size()),
                     std::memory_order_seq_cst);
  slot->batch.clear();
  slot->batch_size.store(0, std::memory_order_release);
}

void ThreadEngine::drop_batch(ThreadSlot* slot) {
  std::lock_guard<std::mutex> guard(slot->batch_mu);
  // The serializer never saw these tasks, but the body created them.
  stats_.tasks_created += slot->batch.size();
  batched_.fetch_sub(static_cast<std::int64_t>(slot->batch.size()),
                     std::memory_order_seq_cst);
  slot->batch.clear();
  slot->batch_size.store(0, std::memory_order_release);
}

bool ThreadEngine::link_stranded_batches() {
  if (batched_.load(std::memory_order_seq_cst) == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_) link_batch_locked(s.get());
  return true;
}

// --- TaskContext backend ---------------------------------------------------

void ThreadEngine::spawn(TaskNode* parent,
                         const std::vector<AccessRequest>& requests,
                         TaskContext::BodyFn body, std::string name,
                         MachineId /*placement*/, TenantCtl* tenant) {
  // A speculative body cannot create real tasks (abort and re-run
  // normally).  The tenant checked is the creator's own, not the child's:
  // the dispatcher launching a program root for tenant T is a host task and
  // is never gated or unwound — a blocked dispatcher would stall every
  // other tenant.
  check_spawn(parent);
  TenantCtl* pctl = parent->tenant();
  // Only the throttle or a tenant quota can park a creator.
  const bool governed = throttle_.enabled() || pctl != nullptr;
  if (governed) reserve_spare_fiber();
  // Build and check the task before taking the lock; only linking it into
  // the declaration queues needs mu_.
  std::unique_ptr<TaskNode> prepared = serializer_.prepare_task(
      parent, requests, std::move(body), std::move(name), tenant);
  ThreadSlot* slot = tls_slot_;
  // The task waits in this thread's batch while every thread has work and
  // holding it back changes nothing anyone sees.  It links at once — a
  // batch of one, after the tasks created before it — when the throttle or
  // a quota must count it now, when it is a program root (a server's
  // dispatcher then waits outside the engine), when speculation may bet on
  // it from its creation, when no task is ready or a thread is idle, or
  // when the batch is full.
  const bool at_once = governed || tenant != nullptr || spec_.enabled();
  if (!at_once) {
    std::size_t held = 0;
    {
      std::lock_guard<std::mutex> guard(slot->batch_mu);
      slot->batch.push_back(std::move(prepared));
      held = slot->batch.size();
      slot->batch_size.store(held, std::memory_order_relaxed);
    }
    // Counted before idle_count_ is read, so a thread that registers idle
    // after this read sees the count (idle_park) and links the batch.
    batched_.fetch_add(1, std::memory_order_seq_cst);
    if (held < kBatchSize &&
        ready_count_.load(std::memory_order_seq_cst) > 0 &&
        idle_count_.load(std::memory_order_seq_cst) == 0)
      return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  link_batch_locked(slot);
  if (prepared != nullptr) link_locked(std::move(prepared));
  if (!governed) return;
  const bool global = throttle_.should_throttle(serializer_.backlog());
  const bool gated = pctl != nullptr && throttle_.tenant_gated(*pctl);
  ThrottleWait wait{parent, pctl, global, gated};
  if (!global && !gated) return;

  // Too much exploited concurrency — globally (Section 3.3) or against this
  // tenant's quota window: park the creator until the pressure drains.  If
  // every other engine thread ends up idle with nothing ready, the backlog
  // can only drain through the creators themselves — give up throttling
  // rather than deadlock.
  ++stats_.throttle_suspensions;
  trace_throttle("throttle.suspend", parent);
  JADE_TRACE("throttle-enter " << parent->name()
             << " backlog=" << serializer_.backlog());
  // Registered before the first check (see execute and
  // wake_throttled_if_all_idle for the pairing).
  const auto registration = throttled_.emplace(pctl, &wait);
  throttle_waiters_.fetch_add(1, std::memory_order_seq_cst);
  if (wait.global) backlog_waiters_.fetch_add(1, std::memory_order_seq_cst);
  // The root body's thread runs no other work, so it is not one of the
  // engine threads the give-up counts.
  const int self = parent == serializer_.root() ? 0 : 1;
  bool give_up = false;
  while (!give_up && !first_error_ && !throttle_clear(wait)) {
    // Every other engine thread idle with nothing ready: only this creator
    // can make progress, so it must keep creating.
    give_up = all_idle_but(self);
    if (!give_up) park_locked(parent, lock);
  }
  throttled_.erase(registration);
  throttle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  if (wait.global) backlog_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  if (first_error_) throw EngineAborting{};
  if (give_up) {
    ++stats_.throttle_giveups;
    trace_throttle("throttle.giveup", parent);
    JADE_TRACE("throttle-giveup " << parent->name());
    return;
  }
  trace_throttle("throttle.resume", parent);
  // The tenant may have been torn down while its creator waited; unwind at
  // this edge rather than running the rest of the body.
  if (cancelled(pctl)) throw TenantUnwind{};
}

void ThreadEngine::with_cont(TaskNode* task,
                             const std::vector<AccessRequest>& requests) {
  // Changing a declaration mid-speculation would fork the serial order the
  // snapshot was captured against; abort and re-run normally.
  if (task->speculating()) throw SpeculationUnwind{};
  reserve_spare_fiber();
  std::unique_lock<std::mutex> lock(mu_);
  // The children created so far sit ahead of the records this updates.
  link_batch_locked(tls_slot_);
  const bool must_block = serializer_.update_spec(task, requests);
  // no_cm also returns the engine-level exclusivity token early, so other
  // commuters proceed before this task completes.
  const auto wake = [this](TaskNode* next) { wake_locked(next); };
  for (const AccessRequest& req : requests) {
    if (!(req.remove & access::kCommute)) continue;
    commute_.release_to(req.obj, task, wake);  // no-op unless the holder
  }
  // Weakened rights may have enabled a speculating successor.
  drain_spec_decides_locked(tls_slot_);
  if (must_block) wait_unblocked(task, lock);
}

std::byte* ThreadEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                       std::uint8_t mode) {
  // A speculating body reads its attempt's shadows, lock-free: the attempt
  // is pinned to this thread through tls_spec_.
  if (task->speculating())
    return SpeculationExecutor::shadow(tls_spec_, task, obj, mode);
  // An accessor on a right the task already holds needs no lock
  // (Serializer::granted) once every child the task created is linked: an
  // unlinked child may belong ahead of the record.  The acquire load pairs
  // with the release of whichever thread linked the batch, so granted sees
  // the child_ahead flags that link set.  Speculation keeps the locked
  // path: its commit check counts every exercised write.
  ThreadSlot* slot = tls_slot_;
  if (!spec_.enabled() &&
      slot->batch_size.load(std::memory_order_acquire) == 0 &&
      serializer_.granted(task, obj, mode))
    return buffers_.data(obj);
  reserve_spare_fiber();
  {
    std::unique_lock<std::mutex> lock(mu_);
    link_batch_locked(slot);
    if (serializer_.acquire(task, obj, mode)) wait_unblocked(task, lock);
    if (mode & access::kCommute) wait_commute_token(task, obj, lock);
  }
  // Global→local translation is pure buffer-table work: by the time the
  // serial order admits the access, the pointer is immutable.
  return buffers_.data(obj);
}

// --- speculation (sched/speculation.hpp does the protocol) ------------------

bool ThreadEngine::try_speculate(ThreadSlot* slot) {
  if (!spec_.enabled()) return false;
  TaskNode* task = nullptr;
  SpeculationExecutor::Attempt* attempt = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // This scan observes every candidate registered so far; only a later
    // registration should keep this thread from parking.
    slot->spec_seen_epoch = spec_epoch_.load(std::memory_order_seq_cst);
    if (first_error_ != nullptr || !spec_.can_start()) return false;
    // Work stealing has no placement step: the thread that finds the bet
    // runs it.
    task = spec_.launch([slot](TaskNode*) { return slot->machine; });
    if (task == nullptr) return false;
    attempt = spec_.attempt(task);
  }
  JADE_TRACE("spec-start " << task->name());
  SpeculationExecutor::Attempt* prev_spec = tls_spec_;
  tls_spec_ = attempt;
  const bool clean = run_speculative_body(task);
  tls_spec_ = prev_spec;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec_.body_finished(task, clean);
    if (task->state() == TaskState::kReady) {
      // The serializer enabled the task while the body ran; the queued
      // decision was a no-op then, so decide here, at the body's end.
      decide_speculation_locked(task, slot);
      drain_spec_decides_locked(slot);
      drained = note_drained_locked();
    }
  }
  if (drained) unpark_all();  // the drain thread may be parked
  return true;
}

void ThreadEngine::drain_spec_decides_locked(ThreadSlot* slot) {
  while (TaskNode* task = spec_.next_enabled())
    decide_speculation_locked(task, slot);
}

void ThreadEngine::decide_speculation_locked(TaskNode* task,
                                             ThreadSlot* slot) {
  const SpeculationExecutor::Outcome outcome = spec_.decide(task);
  if (outcome == SpeculationExecutor::Outcome::kAborted) {
    on_task_ready(task);  // enabled already: back to normal dispatch
  } else if (outcome == SpeculationExecutor::Outcome::kCommitted) {
    ++slot->executed;
    // Starting+completing the task shrank the backlog and its tenant's live
    // count; suspended creators watch both.
    if (!throttled_.empty()) wake_cleared_creators_locked(nullptr);
  }
}

std::vector<std::byte> ThreadEngine::read_bytes(ObjectId obj) {
  return read_storage(obj);
}

void ThreadEngine::publish_bytes(TaskNode* /*task*/, ObjectId obj,
                                 std::span<const std::byte> bytes) {
  buffers_.put(obj, bytes);
}

void ThreadEngine::charge(TaskNode* task, double units) {
  // No lock: the executing thread owns the running task's accounting and
  // its slot's stat cell; the global total is folded at the end of run().
  task->charged_work += units;
  if (tls_engine_ == this && tls_slot_ != nullptr) {
    tls_slot_->charged += units;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.total_charged_work += units;
  }
}

}  // namespace jade
