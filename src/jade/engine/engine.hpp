// The engine interface: everything the Jade front end (Runtime/TaskContext)
// needs from an execution platform.
//
// Four engines implement it:
//   SerialEngine  — executes every task inline at its creation point; this
//                   IS the serial semantics every other execution must match.
//   ThreadEngine  — real shared-memory parallelism on a worker pool.
//   SimEngine     — deterministic virtual-time execution on a simulated
//                   (possibly heterogeneous, message-passing) cluster; the
//                   platform for all of the paper's evaluation experiments.
//   ClusterEngine — real multi-process execution: forked worker processes on
//                   one host, driven over Unix-domain sockets
//                   (src/jade/cluster).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "jade/core/access.hpp"
#include "jade/core/object.hpp"
#include "jade/core/queues.hpp"
#include "jade/core/stats.hpp"
#include "jade/core/task.hpp"
#include "jade/core/tenant.hpp"
#include "jade/obs/metrics.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/sched/governor.hpp"
#include "jade/sched/speculation.hpp"
#include "jade/support/time.hpp"

namespace jade {

/// Observability configuration (src/jade/obs): structured tracing is off by
/// default and zero-cost when off (a null recorder pointer behind one branch).
struct ObsConfig {
  /// Record a structured event trace (export with Runtime::write_chrome_trace).
  bool trace = false;
  /// Ring-buffer capacity; when full the oldest events are dropped (and
  /// counted — the exporter reports the loss).
  std::size_t trace_capacity = obs::TraceRecorder::kDefaultCapacity;
};

// RuntimeStats moved to jade/core/stats.hpp so the runtime services below
// the engines (store/coherence, ft/recovery_coordinator) can report into it
// without depending on this header.

class Engine : private SerializerListener {
 public:
  ~Engine() override = default;

  // --- objects -------------------------------------------------------------
  // One object space for every engine: the id table and every check on a
  // caller's object arguments live here; each engine supplies only the byte
  // storage (the hooks below).  Caller misuse — an unknown id (0 included),
  // a size mismatch, the bytes of a released object — raises ConfigError.

  /// Creates a shared object (zero-initialized).  `home` places the initial
  /// copy on a specific simulated machine (-1: engine's default placement,
  /// round-robin in SimEngine).  Legal before run() and from inside tasks.
  ObjectId allocate(TypeDescriptor type, std::string name, MachineId home);

  /// Host-side initialization before run() (or between runs).
  void put_bytes(ObjectId obj, std::span<const std::byte> data);

  /// Host-side readback after run().
  std::vector<std::byte> get_bytes(ObjectId obj);

  const ObjectInfo& object_info(ObjectId obj) const;

  /// Tags an object with its owning tenant (see ObjectTable::set_tenant).
  /// Server sessions call this right after allocate(), before the object can
  /// appear in any declaration.
  void set_object_tenant(ObjectId obj, TenantId tenant);

  /// Releases an object's byte storage after its owner is torn down (server
  /// teardown path).  The id stays allocated — metadata remains, and
  /// get_bytes/put_bytes of it raise ConfigError — but engines with erasable
  /// storage free the bytes.  Callers must guarantee no live task still
  /// declares the object.
  void release_object(ObjectId obj);

  // --- execution -----------------------------------------------------------

  /// Executes `root_body` as the main task and returns when the whole task
  /// graph has drained.
  virtual void run(std::function<void(TaskContext&)> root_body) = 0;

  // --- TaskContext backend -------------------------------------------------

  /// A non-null `tenant` makes the child a program root of that tenant (see
  /// Serializer::create_task); tasks otherwise inherit the parent's tenant.
  virtual void spawn(TaskNode* parent,
                     const std::vector<AccessRequest>& requests,
                     TaskContext::BodyFn body, std::string name,
                     MachineId placement, TenantCtl* tenant = nullptr) = 0;

  virtual void with_cont(TaskNode* task,
                         const std::vector<AccessRequest>& requests) = 0;

  /// Access check + global→local translation; blocks (in the engine's way)
  /// until the serial order admits the access.  The pointer stays valid for
  /// the remainder of the task.
  virtual std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                                   std::uint8_t mode) = 0;

  virtual void charge(TaskNode* task, double units) = 0;

  virtual int machine_count() const = 0;

  /// Machine `task` is executing on, or last ran on: the machine the engine
  /// assigned it (the executing worker's id in ThreadEngine), 0 before it
  /// has one and where machines don't exist.
  virtual MachineId machine_of(TaskNode* task) const {
    return task->assigned_machine >= 0 ? task->assigned_machine : 0;
  }

  /// Pokes the engine from an outside thread after external state it waits
  /// on changed (e.g. the server cancelled a tenant whose tasks are parked
  /// on the throttle gate).  Default: nothing to poke.
  virtual void notify_external() {}

  const RuntimeStats& stats() const { return stats_; }

  // --- observability (src/jade/obs) ----------------------------------------

  /// Installs the trace recorder and connects the tracer to this engine's
  /// clock.  Engines with instrumented subcomponents (SimEngine: network,
  /// directory) override to propagate the tracer.  Call before run().
  virtual void enable_tracing(const ObsConfig& config);

  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The installed recorder, or nullptr when tracing is off.
  const obs::TraceRecorder* trace() const { return recorder_.get(); }

 protected:
  /// Builds the task space: the serializer (this engine is its listener,
  /// the object table its tenant oracle), the commute tokens and the
  /// throttle gate.
  explicit Engine(ThrottleConfig throttle = {});

  // --- byte storage: one implementation per engine -------------------------
  // Called after the argument checks, without the table lock held.  Racing
  // allocations may create ids out of order.

  /// Makes zero-filled storage for a new object.
  virtual void create_storage(const ObjectInfo& info, MachineId home) = 0;
  /// Overwrites a live object's bytes; `data` has its exact size.
  virtual void write_storage(ObjectId obj,
                             std::span<const std::byte> data) = 0;
  virtual std::vector<std::byte> read_storage(ObjectId obj) = 0;
  /// Frees a released object's bytes; by default they are kept.
  virtual void free_storage(ObjectId obj) { (void)obj; }

  /// The table without its lock, for an engine whose object calls all come
  /// from one thread (SimEngine hands it to its coherence protocol).
  const ObjectTable& objects() const { return objects_; }

  /// The tracer's clock: virtual time in SimEngine, wall/logical time in
  /// the real engines.  Only consulted while tracing is enabled.
  virtual SimTime trace_now() const { return 0; }

  // --- the task space ------------------------------------------------------

  /// Serializer notifications; an engine overrides those it can receive.
  /// By default each raises InternalError.
  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  /// Starts a run on a fresh graph: resets the serializer, empties the
  /// token table and zeroes stats_.  Objects and their bytes persist.
  void begin_run();

  /// Ends a run, failed or not: adds the serializer's count of linked
  /// tasks to tasks_created (ThreadEngine counts the unlinked ones a failed
  /// body dropped) and publishes every RuntimeStats field into `metrics_`
  /// under the canonical dotted names (docs/OBSERVABILITY.md), giving
  /// benches and tests one uniform registry view.
  void end_run();

  /// The spawn prologue: a speculating creator abandons its attempt
  /// (SpeculationUnwind), and a cancelled tenant's creator unwinds
  /// (TenantUnwind) instead of adding work.
  static void check_spawn(const TaskNode* parent) {
    if (parent->speculating()) throw SpeculationUnwind{};
    if (cancelled(parent->tenant())) throw TenantUnwind{};
  }

  /// A throttle.suspend / .resume / .giveup instant for `creator`, valued
  /// at the backlog.
  void trace_throttle(const char* event, TaskNode* creator) {
    if (tracer_.enabled())
      tracer_.instant(obs::Subsystem::kEngine, event, creator->id(),
                      machine_of(creator),
                      static_cast<double>(serializer_.backlog()));
  }

  /// Runs `task`'s body on behalf of its tenant.  A cancelled tenant's body
  /// is skipped and counted; a TenantUnwind (teardown caught the body at a
  /// spawn or wait edge) is counted; any other failure is recorded against
  /// the tenant, which is cancelled.  The caller then completes the task
  /// normally, so its successors unblock in serial order.  Engine-internal
  /// unwinds (EngineUnwind) and every exception of a host task (one without
  /// a tenant) propagate to the caller.
  void run_body(TaskNode* task);

  /// Runs the body of a speculative attempt; false when it threw.  Such a
  /// failure — SpeculationUnwind, or an error that may be an artifact of
  /// snapshot staleness — only aborts the attempt: a genuine error
  /// reproduces on the normal re-run.  EngineUnwind propagates.
  bool run_speculative_body(TaskNode* task);

  /// The task space, under the engine's discipline (SerialEngine and
  /// SimEngine are single-threaded; ThreadEngine and ClusterEngine hold
  /// their mu_, apart from the serializer calls documented as exempt).
  Serializer serializer_;
  /// Commuting-update exclusivity (Section 4.3 extension).
  CommuteTokenTable commute_;
  ThrottleGate throttle_;
  /// Every counter is counted where it happens, for the current run.
  RuntimeStats stats_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceRecorder> recorder_;

 private:
  /// `obj`'s entry; ConfigError naming `op` when the id is unknown, or when
  /// `live` and the object was released.
  const ObjectInfo& checked(ObjectId obj, const char* op, bool live) const;

  /// Leaf lock (the tenant oracles take it under an engine's own mutex).
  mutable std::mutex objects_mu_;
  ObjectTable objects_;
};

}  // namespace jade
