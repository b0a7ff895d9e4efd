// ThreadEngine — Jade on a shared-memory multiprocessor.
//
// Models the paper's SGI 4D/240S / DASH implementation: the hardware (here,
// the host's cache-coherent memory) provides the shared address space, so
// the runtime "only needs to synchronize the computation" (Section 1).
//
// The execution path is decomposed so the one global mutex guards only what
// is global by contract — the Serializer, which is single-threaded by
// design — and nothing else (docs/PERFORMANCE.md spells out the hierarchy).
// A task takes that mutex twice: once when its creator links it into the
// declaration queues, once when it completes.  Building the task, starting
// it, its accessors on rights it already holds, and the drain loop's
// polling take no lock.
//
//   * Ready-task dispatch runs through per-thread Chase–Lev work-stealing
//     deques (support/work_steal_deque.hpp).  A task enabled by thread T is
//     pushed to T's own deque and executed LIFO for locality; idle threads
//     steal FIFO.  Wakeups are targeted — a producer unparks exactly one
//     idle thread (support/parker.hpp) instead of broadcasting.
//   * Object bytes live in a sharded BufferTable (engine/buffer_table.hpp)
//     with stable per-object allocations, so data access (acquire_bytes)
//     and host I/O (put_bytes/get_bytes) never contend with scheduling.
//   * charge() is two plain writes: the running task is owned by its
//     executing thread, and the global total folds per-thread cells into
//     RuntimeStats at the end of run().
//
// Throttling (Section 3.3): when too many tasks are outstanding, the
// creating task suspends until the backlog drains — with the paper's
// deadlock escape (when every other thread is asleep with nothing ready,
// the creator gives up throttling, since only it can make progress).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "jade/engine/buffer_table.hpp"
#include "jade/engine/engine.hpp"
#include "jade/model/planner.hpp"
#include "jade/sched/governor.hpp"
#include "jade/sched/policies.hpp"
#include "jade/sched/speculation.hpp"
#include "jade/support/parker.hpp"
#include "jade/support/work_steal_deque.hpp"

namespace jade {

class ThreadEngine : public Engine,
                     private SerializerListener,
                     private SpeculationHooks {
 public:
  ThreadEngine(int workers, ThrottleConfig throttle, bool enforce_hierarchy,
               SpecConfig spec = {},
               std::shared_ptr<const model::Planner> planner = nullptr);
  ~ThreadEngine() override;

  void run(std::function<void(TaskContext&)> root_body) override;

  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return workers_requested_; }
  /// The worker the task is (or was last) executing on; 0 for the root task
  /// and for tasks not yet picked up.  Compensating workers report the id of
  /// the worker slot they stand in for, keeping the result in
  /// [0, machine_count()).
  MachineId machine_of(TaskNode* task) const override {
    return task->assigned_machine >= 0 ? task->assigned_machine : 0;
  }

  void enable_tracing(const ObsConfig& cfg) override;

  /// Wakes every state_cv_ waiter so it re-evaluates its predicate against
  /// externally changed state (a tenant cancelled by the server while its
  /// creators are parked on the throttle or a commute token).
  void notify_external() override;

 protected:
  /// Wall seconds since tracing was enabled (there is no virtual clock on
  /// real hardware); traces are therefore not run-to-run deterministic.
  SimTime trace_now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         trace_epoch_)
        .count();
  }

 private:
  /// Everything one engine thread owns: its ready deque, its parking spot,
  /// and stat cells only that thread writes (folded into RuntimeStats and
  /// the metrics registry when run() ends).  Slot 0 is the root/drain
  /// thread; 1..workers are the pool; later slots are compensating workers.
  struct ThreadSlot {
    ThreadSlot(int index, MachineId machine) : index(index), machine(machine) {}

    const int index;          ///< dense per-thread index into slots_
    const MachineId machine;  ///< reported machine id, in [0, machine_count)
    WorkStealDeque<TaskNode*> deque;
    Parker parker;

    /// Set (under mu_) around complete_task: the completing thread is about
    /// to call find_task, so the first task its completion enables needs no
    /// wakeup — it will be popped locally.  Without this, every step of a
    /// dependence chain wakes a stealer that migrates the chain, and two
    /// threads ping-pong it with a futex round-trip per task.
    std::uint32_t local_grants = 0;

    /// spec_epoch_ value at this thread's last candidate scan.  idle_park
    /// refuses to park while the global epoch is ahead of it, so a candidate
    /// registered after the scan gets one more look before the thread
    /// sleeps (same register-then-recheck protocol as ready_count_).
    std::uint64_t spec_seen_epoch = 0;

    // Owner-thread-only cells (no sharing until the post-join fold).
    double charged = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t parks = 0;
    std::size_t max_queue_depth = 0;
  };

  /// RAII binding of the calling thread to (engine, slot): serializer
  /// callbacks and charge() route through these thread-locals.  Saved and
  /// restored so a task body that runs a nested Runtime behaves.
  class TlsBinding {
   public:
    TlsBinding(ThreadEngine* engine, ThreadSlot* slot);
    ~TlsBinding();

   private:
    ThreadEngine* prev_engine_;
    ThreadSlot* prev_slot_;
  };

  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  void worker_loop(ThreadSlot* slot);
  /// Runs one claimed task to completion on `slot`'s thread.  Starts it
  /// without a lock and takes mu_ once, to complete it; the body runs with
  /// no lock held.
  void execute(TaskNode* task, ThreadSlot* slot);
  /// Pops the thread's own deque, then tries to steal; nullptr when no task
  /// could be obtained (the caller decides whether to park).
  TaskNode* find_task(ThreadSlot* self);
  /// Bounded yield-spin between an empty find_task and parking: returns
  /// true as soon as work appears (or stop), false when the budget runs out
  /// and the caller should park.  While spinning the thread is not idle, so
  /// producers skip the futex wake — in a producer-limited phase this
  /// replaces a park/unpark round-trip per task with a scheduler yield,
  /// which also hands the core back to the producer on small machines.
  bool spin_for_work(ThreadSlot* slot);
  /// Parks `slot` until a producer wakes it.  Registers in the idle set
  /// first and re-checks for work (and, for the `drain` thread, drain_exit_)
  /// after registering, so a concurrent producer cannot be missed.
  void idle_park(ThreadSlot* slot, bool drain);
  /// Removes `slot` from the idle set; false when a producer already
  /// claimed it (an unpark is in flight and must be consumed).
  bool idle_cancel(ThreadSlot* slot);
  /// Unparks one idle thread, if any (the targeted-wake fast path).
  void wake_one();
  /// Unparks every idle thread (stop, first error, graph drained).
  void unpark_all();
  /// Rare-edge notifier: when every engine thread is now asleep with
  /// nothing ready, blocked-in-body threads (throttle waiters) must
  /// re-evaluate their give-up predicate.
  void notify_if_all_asleep();
  /// Same check, for callers already holding mu_.
  void maybe_notify_all_asleep_locked();
  /// Call under mu_ after a complete_task: sets drain_exit_ (and returns
  /// true) once the root has completed and nothing is outstanding.
  bool note_drained_locked();

  /// Blocks the calling task until on_task_unblocked fires for it; called
  /// with mu_ held.
  void wait_unblocked(TaskNode* task, std::unique_lock<std::mutex>& lock);
  /// Called (with mu_ held) before a task blocks mid-body: if no idle
  /// thread remains, spawns a compensating worker so ready tasks always
  /// have an empty-stack executor.  Tasks are never executed inline on a
  /// blocked task's stack — inlining lets a helped task block on a task
  /// buried beneath it on the same stack, a deadlock no wakeup can fix.
  void ensure_spare_worker();
  /// Records the first failure, wakes every waiter/parked thread.
  void record_error(std::exception_ptr err);
  /// Returns every commute token `task` still holds (mu_ held).  Called at
  /// task completion — including the root's, which never passes through
  /// execute() but may have taken tokens in its body.
  void release_commute_tokens_locked(TaskNode* task);

  // --- object bytes: the BufferTable alone, so none of these touch mu_ -----
  void create_storage(const ObjectInfo& info, MachineId) override {
    buffers_.create(info.id, info.byte_size());
  }
  void write_storage(ObjectId obj, std::span<const std::byte> data) override {
    buffers_.put(obj, data);
  }
  std::vector<std::byte> read_storage(ObjectId obj) override {
    return buffers_.get(obj);
  }
  void free_storage(ObjectId obj) override { buffers_.destroy(obj); }

  // --- speculation (sched/speculation.hpp does the protocol) ---------------

  /// Launches a candidate and runs its body on this thread (no lock held),
  /// deciding at the body's end if the serializer enabled the task
  /// meanwhile.  False when nothing was launched (the caller spins/parks).
  bool try_speculate(ThreadSlot* slot);
  /// Runs the queued commit checks; call after every serializer-mutating
  /// section, with mu_ held.
  void drain_spec_decides_locked(ThreadSlot* slot);
  /// One commit check plus the engine's side of its outcome (mu_ held).
  void decide_speculation_locked(TaskNode* task, ThreadSlot* slot);
  // SpeculationHooks (called with mu_ held)
  std::vector<std::byte> read_bytes(ObjectId obj) override;
  void publish_bytes(TaskNode* task, ObjectId obj,
                     std::span<const std::byte> bytes) override;

  /// Registers the next ThreadSlot (single-threaded at run() start, under
  /// mu_ afterwards) and publishes it to stealing threads.
  ThreadSlot* add_slot(MachineId machine);

  static constexpr int kMaxSlots = 4097;  ///< 4096 workers + the root thread

  /// The calling thread's binding, installed by TlsBinding.  Engine-tagged
  /// so a nested Runtime inside a task body cannot misroute callbacks.
  static thread_local ThreadEngine* tls_engine_;
  static thread_local ThreadSlot* tls_slot_;
  /// The speculative attempt the calling thread is executing, if any
  /// (installed around the body in try_speculate); its shadows are read
  /// lock-free through it.
  static thread_local SpeculationExecutor::Attempt* tls_spec_;

  const int workers_requested_;
  /// Policy seam (docs/MODEL.md): work stealing places tasks implicitly
  /// (the claiming worker is the placement), so the planner's role here is
  /// the policy knobs it planned up front plus the structured claim
  /// explanation emitted into traces.  Default: the shared HeuristicPlanner.
  std::shared_ptr<const model::Planner> planner_;
  /// Water-mark predicates + suspension/give-up counters (shared
  /// implementation with SimEngine); counters fold into stats_ at the end
  /// of run().  Mutated only under mu_.
  ThrottleGate throttle_;

  // --- serializer domain: guarded by mu_ -----------------------------------
  // mu_ serializes the Serializer calls (single-threaded by contract; the
  // exempt prepare_task, task_started and granted are made without it) plus
  // the blocked-task coordination that is driven by serializer callbacks:
  // unblock delivery, commute-token ownership, throttle waits, first_error_.
  std::mutex mu_;
  std::condition_variable state_cv_;  ///< blocked tasks / throttled creators
  Serializer serializer_;
  std::unordered_set<TaskNode*> unblocked_;
  /// Speculative run-ahead (shared implementation with SimEngine).
  /// Called under mu_, except the lock-free shadow reads via tls_spec_.
  SpeculationExecutor spec_;
  /// Bumped (under mu_) when a candidate is registered.  Candidates do not
  /// raise ready_count_, so without this a thread that found no work before
  /// the registration would park and never learn about the bet — the
  /// spawner may be deep inside a long task body and in the worst case
  /// every other thread sleeps through the whole speculation window.
  std::atomic<std::uint64_t> spec_epoch_{0};
  /// Commuting-update exclusivity (Section 4.3 extension): commuters may
  /// execute in any order but their accesses are mutually exclusive.  A
  /// task takes an object's token at its first commute accessor and holds
  /// it until completion.  Tasks taking tokens on several objects must do
  /// so in a consistent global order (as with any lock).  Shared
  /// implementation with SimEngine (sched/governor.hpp); here waiters sleep
  /// on state_cv_ and race for a freed token, so the table's FIFO wait
  /// queues stay unused.
  CommuteTokenTable commute_;
  /// Threads currently waiting on state_cv_; notifications are skipped
  /// entirely when zero, so unblocked hot paths never broadcast.
  int cv_waiters_ = 0;
  /// Creators currently suspended in the throttle loop (subset of
  /// cv_waiters_).  Changed under mu_; read without it by execute(), which
  /// notifies only when one exists.
  std::atomic<int> throttle_waiters_{0};
  std::vector<std::thread> workers_;
  /// True once run() has executed; the next run() resets the scheduling
  /// state for a fresh graph (objects and buffers persist).
  bool ran_ = false;
  /// First exception that escaped a task body (or a spec violation raised
  /// inside one); rethrown from run() after the pool shuts down.
  std::exception_ptr first_error_;

  // --- object bytes: independent of scheduling -----------------------------
  BufferTable buffers_;  ///< internally sharded

  // --- dispatch domain: lock-free deques + a small idle-set mutex ----------
  /// Per-thread slots, created at run() start and by ensure_spare_worker.
  /// The array is pre-sized so slot publication is a single release store
  /// of slot_count_; stealing threads scan [0, slot_count_).
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
  std::atomic<int> slot_count_{0};
  /// Ready tasks across all deques.  The single global fact the dispatch
  /// path maintains; parking and the throttle give-up predicate need it.
  std::atomic<std::int64_t> ready_count_{0};
  /// Idle (parked or about-to-park) threads, popped by producers for
  /// targeted wakes.  idle_mu_ is a leaf lock: acquired with or without
  /// mu_, never the other way around.
  std::mutex idle_mu_;
  std::vector<ThreadSlot*> idle_stack_;
  std::atomic<int> idle_count_{0};
  /// Threads asleep in any engine wait (parked idle, throttle sleeps,
  /// dependency waits).  When every thread would be asleep with nothing
  /// ready, a throttled creator is the only progress source and must give
  /// up throttling instead of sleeping (see spawn()).  Nested helping
  /// makes per-*task* counts wrong — a helped task sleeping on the root's
  /// stack also parks the root — so this counts *threads*.
  std::atomic<int> sleeping_threads_{0};
  /// Worker threads + the root thread, once run() starts (grows when
  /// compensating workers are spawned).
  std::atomic<int> total_threads_{0};
  std::atomic<bool> stop_{false};
  /// The drain loop's exit condition: the graph drained (set by
  /// note_drained_locked) or the first error was recorded.
  std::atomic<bool> drain_exit_{false};

  std::chrono::steady_clock::time_point trace_epoch_{};
};

}  // namespace jade
