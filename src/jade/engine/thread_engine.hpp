// ThreadEngine — Jade on a shared-memory multiprocessor.
//
// Models the paper's SGI 4D/240S / DASH implementation: the hardware (here,
// the host's cache-coherent memory) provides the shared address space, so
// the runtime "only needs to synchronize the computation" (Section 1).
//
// The execution path is decomposed so the one global mutex guards only what
// is global by contract — the Serializer, which is single-threaded by
// design — and nothing else (docs/PERFORMANCE.md spells out the hierarchy).
// A task takes that mutex once, when it completes, plus its share of one
// batch link: each thread keeps the tasks its running body creates in a
// per-thread batch and links the whole batch, in creation order, under one
// hold (see spawn).  Building the task, starting it, its accessors on
// rights it already holds, and the drain loop's polling take no lock.
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
//   * A task that must wait — on a deferred right, a commute token or the
//     throttle — parks the fiber it runs on, not its thread
//     (support/fiber.hpp).  Every worker's scheduling loop runs on a pooled
//     fiber, so a task body runs on that fiber's stack and a task that
//     never waits costs no switch.  The parked fiber is registered by its
//     task's name in the wait; the worker continues on a fresh fiber, and
//     whoever ends the wait hands the fiber back to its owner thread, which
//     resumes it.  A run never has more than workers + 1 engine threads.
//
// Throttling (Section 3.3): when too many tasks are outstanding, the
// creating task suspends until the backlog drains — with the paper's
// deadlock escape (when every other engine thread is idle with nothing
// ready, the creator gives up throttling, since only it can make progress).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "jade/engine/buffer_table.hpp"
#include "jade/engine/engine.hpp"
#include "jade/sched/policies.hpp"
#include "jade/sched/speculation.hpp"
#include "jade/support/fiber.hpp"
#include "jade/support/parker.hpp"
#include "jade/support/work_steal_deque.hpp"

namespace jade {

class ThreadEngine : public Engine, private SpeculationHooks {
 public:
  ThreadEngine(int workers, ThrottleConfig throttle, SpecConfig spec = {});
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

  void enable_tracing(const ObsConfig& cfg) override;

  /// Re-checks the waits that externally changed state can end: a creator
  /// parked on its tenant's quota (the server widened the window or
  /// cancelled the tenant) and a cancelled tenant's commute-token waiters.
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
  /// its fibers, and stat cells only that thread writes (folded into
  /// RuntimeStats and the metrics registry when run() ends).  Slot 0 is the
  /// root/drain thread; 1..workers are the pool.
  struct ThreadSlot {
    ThreadSlot(ThreadEngine* engine, int index, MachineId machine)
        : engine(engine), index(index), machine(machine) {}

    ThreadEngine* const engine;  ///< for the fiber entry
    const int index;             ///< dense per-thread index into slots_
    const MachineId machine;     ///< reported machine id, in [0, machine_count)
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

    // --- fibers (see run_fibers) --------------------------------------------
    // A parked fiber resumes only on this thread: tls_engine_, tls_slot_,
    // tls_spec_ and the C++ exception globals are per thread, and compilers
    // may cache a thread-local's address across a call.
    FiberPool fibers;  ///< owner-only
    /// The fiber running on this thread; a task that parks moves it into
    /// parked_.  Owner-only.
    std::unique_ptr<Fiber> current;
    /// The fiber the loop continues on when a task parks, mapped before the
    /// task takes mu_ (reserve_spare_fiber).  Owner-only.
    std::unique_ptr<Fiber> spare;
    /// Fibers of this thread that are parked or runnable.  Owner-only.
    int waiting_fibers = 0;
    /// Woken fibers, oldest first, pushed by whoever ended their wait.
    /// Guarded by mu_; runnable_count mirrors its size for lock-free checks.
    std::deque<std::unique_ptr<Fiber>> runnable;
    std::atomic<int> runnable_count{0};
    /// Set while the thread sleeps in wait_runnable (it is not on the idle
    /// stack there), so a waker knows to unpark it.
    std::atomic<bool> awaits_fiber{false};

    // --- batched linking (see spawn) ----------------------------------------
    /// Tasks the body running on this thread created and nobody has linked
    /// yet, in creation order.  Guarded by batch_mu, a leaf lock taken after
    /// mu_: the owner appends under batch_mu alone, and any thread holding
    /// mu_ may link the batch (link_batch_locked).
    std::mutex batch_mu;
    std::vector<std::unique_ptr<TaskNode>> batch;
    /// batch.size().  A link that empties the batch stores 0 with release,
    /// after setting its DeclRecord::child_ahead flags; the owner loads it
    /// with acquire before Serializer::granted reads those flags.
    std::atomic<std::size_t> batch_size{0};

    // Owner-thread-only cells (no sharing until the post-join fold).
    double charged = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t parks = 0;
    std::uint64_t fiber_parks = 0;
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

  /// A parked task's fiber and the thread that must resume it.
  struct Parked {
    ThreadSlot* owner = nullptr;
    std::unique_ptr<Fiber> fiber;
    /// Waiting for a commute token, a wait a cancellation also ends.
    bool commute = false;
  };

  /// A creator suspended on the global throttle and/or its tenant's quota,
  /// registered in throttled_ from its first check until it leaves the
  /// wait.  Lives on the creator's stack.
  struct ThrottleWait {
    TaskNode* creator;
    TenantCtl* tenant;  ///< the creator's tenant (null for host tasks)
    bool global;        ///< the backlog exceeded the high-water mark
    bool gated;         ///< the tenant's live tasks exceeded its quota
  };

  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  // --- threads and fibers ----------------------------------------------------

  /// The calling thread's scheduler, on its own stack: resumes `first` (the
  /// root body) or a fresh loop fiber; when control comes back, that fiber
  /// has parked (its task holds it) or ended (back to the pool).  It then
  /// resumes a woken fiber if there is one, or starts a fresh loop fiber.
  /// Returns when the slot is done and none of its fibers waits.
  void run_fibers(ThreadSlot* slot, std::unique_ptr<Fiber> first);
  /// The slot's loop has ended: the run is stopping (workers), or the graph
  /// drained or failed (the root's thread).
  bool slot_done(const ThreadSlot* slot) const;
  /// Fiber entries: a scheduling loop, and the root body.
  static void loop_entry(void* slot);
  static void root_entry(void* engine);
  /// The scheduling loop (workers, and the root's thread once its body has
  /// returned).  Ends — freeing its fiber — when the slot is done, or when a
  /// woken fiber of this thread should resume.
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
  /// first and re-checks for work, batched tasks (and, for the `drain`
  /// thread, drain_exit_) after registering, so a concurrent producer or
  /// creator cannot be missed.
  void idle_park(ThreadSlot* slot, bool drain);
  /// Removes `slot` from the idle set; false when it was not there (busy,
  /// or a producer already claimed it and an unpark is in flight).
  bool idle_cancel(ThreadSlot* slot);
  /// Unparks one idle thread, if any (the targeted-wake fast path).
  void wake_one();
  /// Unparks every idle thread (stop, first error, graph drained).
  void unpark_all();
  /// Call under mu_ after a complete_task: sets drain_exit_ (and returns
  /// true) once the root has completed and nothing is outstanding.
  bool note_drained_locked();

  // --- waits: a task parks its fiber, woken by name --------------------------

  /// Maps the fiber the calling thread continues on if the calling task
  /// parks.  Called before mu_ is taken, so a failed mapping fails the task.
  void reserve_spare_fiber();
  /// Parks the calling task's fiber (mu_ held; released while parked,
  /// re-taken on resume).  Whoever ends the wait calls wake_locked(task).
  void park_locked(TaskNode* task, std::unique_lock<std::mutex>& lock,
                   bool commute = false);
  /// Hands a parked task's fiber to its owner thread's runnable list and
  /// unparks that thread if it sleeps (mu_ held).  No-op when `task` is not
  /// parked.
  void wake_locked(TaskNode* task);
  /// The next woken fiber of `slot`, or nullptr.  Owner thread only.
  std::unique_ptr<Fiber> take_runnable(ThreadSlot* slot);
  /// Sleeps until one of `slot`'s fibers is woken.
  void wait_runnable(ThreadSlot* slot);
  /// Blocks the calling task until on_task_unblocked fires for it; called
  /// with mu_ held.
  void wait_unblocked(TaskNode* task, std::unique_lock<std::mutex>& lock);
  /// Takes `obj`'s commute token for `task`, queueing FIFO behind its holder
  /// when it is taken (mu_ held).  A release hands the token to the oldest
  /// waiter, which is woken by name.  Tasks taking tokens on several objects
  /// must do so in a consistent global order (as with any lock).
  void wait_commute_token(TaskNode* task, ObjectId obj,
                          std::unique_lock<std::mutex>& lock);
  /// True once a throttled creator may resume creating, or must unwind
  /// because its tenant was cancelled (mu_ held).
  bool throttle_clear(const ThrottleWait& w) const;
  /// Wakes the throttled creators that throttle_clear now admits: those of
  /// `tenant`, or all of them when `tenant` is null or a backlog waiter
  /// exists (mu_ held).
  void wake_cleared_creators_locked(const TenantCtl* tenant);
  /// The throttle give-up predicate: no engine thread but the caller's can
  /// make progress.  `self` counts the caller's own thread (0 for the root
  /// body, whose thread runs no other work).
  bool all_idle_but(int self) const;
  /// The rare edge that ends the give-up wait: when the last engine thread
  /// goes idle with nothing ready, every throttled creator re-evaluates.
  void wake_throttled_if_all_idle();
  /// Records the first failure; wakes every parked task and idle thread.
  void record_error(std::exception_ptr err);

  // --- batched linking -------------------------------------------------------

  /// Links one prepared task into the declaration queues (mu_ held).
  void link_locked(std::unique_ptr<TaskNode> prepared);
  /// Links `slot`'s batch in creation order (mu_ held).  Called by the
  /// owner before anything that must see its children linked, and by any
  /// thread that links a stranded batch.
  void link_batch_locked(ThreadSlot* slot);
  /// Discards `slot`'s batch: its creator's body threw, and no serializer
  /// state refers to those tasks.  Counts them as created.  Caller holds
  /// mu_.
  void drop_batch(ThreadSlot* slot);
  /// Links every thread's batch; false when none was pending.  Called by a
  /// thread that found no work and finished its spin, before it parks.
  bool link_stranded_batches();

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

  /// The calling thread's binding, installed by TlsBinding.  Engine-tagged
  /// so a nested Runtime inside a task body cannot misroute callbacks.
  static thread_local ThreadEngine* tls_engine_;
  static thread_local ThreadSlot* tls_slot_;
  /// The speculative attempt the calling thread is executing, if any
  /// (installed around the body in try_speculate); its shadows are read
  /// lock-free through it.
  static thread_local SpeculationExecutor::Attempt* tls_spec_;

  const int workers_requested_;

  // --- serializer domain: guarded by mu_ -----------------------------------
  // mu_ serializes the Serializer calls (single-threaded by contract; the
  // exempt prepare_task, task_started and granted are made without it) plus
  // the waits driven by serializer callbacks: parked tasks, unblock
  // delivery, commute-token ownership (commute_), throttle waits,
  // first_error_, and the stats_ counters the waits and speculation keep.
  std::mutex mu_;
  /// Unblocks delivered and not yet consumed by their task's wait (one can
  /// land before the task parks: a speculation committed by the same
  /// critical section).
  std::unordered_set<TaskNode*> unblocked_;
  /// Every parked task, by name.
  std::unordered_map<TaskNode*, Parked> parked_;
  /// Creators in the throttle wait, keyed by tenant so that a tenant task's
  /// completion re-checks only that tenant's creators.
  std::unordered_multimap<const TenantCtl*, ThrottleWait*> throttled_;
  /// Speculative run-ahead (shared implementation with SimEngine).
  /// Called under mu_, except the lock-free shadow reads via tls_spec_.
  SpeculationExecutor spec_;
  /// Bumped (under mu_) when a candidate is registered.  Candidates do not
  /// raise ready_count_, so without this a thread that found no work before
  /// the registration would park and never learn about the bet — the
  /// spawner may be deep inside a long task body and in the worst case
  /// every other thread sleeps through the whole speculation window.
  std::atomic<std::uint64_t> spec_epoch_{0};
  /// Parked commute waiters (notify_external looks for cancelled ones).
  int commute_waiters_ = 0;
  /// Sizes of throttled_ and of its backlog-gated subset.  Changed under
  /// mu_; read without it on hot paths, which then take mu_ only when a
  /// waiter exists.
  std::atomic<int> throttle_waiters_{0};
  std::atomic<int> backlog_waiters_{0};
  std::vector<std::thread> workers_;
  /// First exception that escaped a task body (or a spec violation raised
  /// inside one); rethrown from run() after the pool shuts down.
  std::exception_ptr first_error_;

  // --- object bytes: independent of scheduling -----------------------------
  BufferTable buffers_;  ///< internally sharded

  // --- dispatch domain: lock-free deques + a small idle-set mutex ----------
  /// Per-thread slots, built at run() start before any worker starts and
  /// unchanged until the pool joins, so stealers scan them with no lock.
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
  /// The root body, while run() executes it (read by root_entry).
  std::function<void(TaskContext&)>* root_body_ = nullptr;
  /// Root-thread-only: the root body has returned.  Until then the root's
  /// thread runs nothing else, so no task can park on a thread whose body
  /// blocks outside the engine (a server's dispatcher waits for
  /// submissions there).
  bool root_returned_ = false;
  /// Ready tasks across all deques.  The single global fact the dispatch
  /// path maintains; parking and the throttle give-up predicate need it.
  std::atomic<std::int64_t> ready_count_{0};
  /// Tasks waiting in all threads' batches.  A creator counts its task
  /// before it checks idle_count_, and a parking thread re-checks this after
  /// registering idle (both seq_cst), so no batch is left with every thread
  /// asleep.
  std::atomic<std::int64_t> batched_{0};
  /// A batch links once it holds this many tasks.
  static constexpr std::size_t kBatchSize = 64;
  /// Idle (parked or about-to-park) threads, popped by producers for
  /// targeted wakes.  idle_mu_ is a leaf lock: acquired with or without
  /// mu_, never the other way around.
  std::mutex idle_mu_;
  std::vector<ThreadSlot*> idle_stack_;
  std::atomic<int> idle_count_{0};
  /// Threads that can run engine work: the workers, plus the root's thread
  /// once its body has returned.  When all of them are idle with nothing
  /// ready, a throttled creator is the only progress source and must give
  /// up throttling instead of waiting (see spawn()).
  std::atomic<int> engine_threads_{0};
  std::atomic<bool> stop_{false};
  /// The drain loop's exit condition: the graph drained (set by
  /// note_drained_locked) or the first error was recorded.
  std::atomic<bool> drain_exit_{false};

  std::chrono::steady_clock::time_point trace_epoch_{};
};

}  // namespace jade
