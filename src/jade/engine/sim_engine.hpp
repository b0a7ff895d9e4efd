// SimEngine — Jade on a simulated (possibly heterogeneous, message-passing)
// cluster, in deterministic virtual time.
//
// This is the platform on which every evaluation experiment runs.  Task
// bodies really execute (results are real and compared against the serial
// engine); their *cost* is declared via TaskContext::charge() and converted
// to virtual seconds by the executing machine's speed.  Object motion goes
// through the interconnect model and the object directory, reproducing the
// paper's Section 3.3 walkthrough:
//
//   * a ready task is assigned to a machine by the dynamic load balancer,
//     preferring machines that already hold its objects (locality);
//   * the runtime then moves (write access) or copies (read access) the
//     declared objects to that machine, converting data formats when the
//     machines' byte orders differ;
//   * while one task's objects are in transit the machine executes another
//     resident task — latency hiding via multiple task contexts;
//   * excess task creation suspends the creating task (throttling), which
//     serial semantics makes deadlock-free.
//
// Every task executes as a cooperative sim::Process, so an unmodified body
// can pause mid-execution in a with-cont — the pipelining construct of
// Section 4.2.
//
// The engine itself is the *conductor*: dispatch, machine contexts, task
// processes, and waits.  The protocol work lives in engine-agnostic runtime
// services it drives through small interfaces —
//   * store/coherence.hpp  — object transfers, batched fetches, replica
//     revalidation, invalidation fan-out, format-conversion caching;
//   * ft/recovery_coordinator.hpp — fault plan, failure detection, attempt
//     kill/rollback, directory surgery, re-queueing;
//   * sched/governor.hpp   — commute-token exclusivity and creation
//     throttling, held by Engine for every engine;
//   * sched/speculation.hpp — speculative run-ahead, shared with
//     ThreadEngine.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "jade/engine/engine.hpp"
#include "jade/ft/recovery_coordinator.hpp"
#include "jade/mach/machine.hpp"
#include "jade/net/network.hpp"
#include "jade/sched/policies.hpp"
#include "jade/sched/speculation.hpp"
#include "jade/sim/simulation.hpp"
#include "jade/store/coherence.hpp"
#include "jade/store/directory.hpp"

namespace jade {

class FaultyNetwork;

class SimEngine : public Engine, private SpeculationHooks {
 public:
  SimEngine(ClusterConfig cluster, SchedPolicy sched, FaultConfig fault = {});
  ~SimEngine() override;

  void run(std::function<void(TaskContext&)> root_body) override;

  /// Also attaches the tracer to the network model and object directory, so
  /// one toggle lights up every subsystem.
  void enable_tracing(const ObsConfig& cfg) override;

  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return cluster_.machine_count(); }
  MachineId machine_of(TaskNode* task) const override;

  /// Virtual time now (for apps/benches that trace progress).
  SimTime now() const { return sim_.now(); }
  const ObjectDirectory& directory() const { return directory_; }

 protected:
  /// Registers the object in the directory at `home` (-1: round-robin).
  void create_storage(const ObjectInfo& info, MachineId home) override;
  void write_storage(ObjectId obj, std::span<const std::byte> data) override;
  std::vector<std::byte> read_storage(ObjectId obj) override;

  /// Trace timestamps are virtual time — the whole point of tracing a
  /// deterministic simulation is a deterministic trace.
  SimTime trace_now() const override;

 private:
  /// What a parked task process is waiting for (routes resumes).
  enum class Wait : std::uint8_t {
    kNone,
    kFetch,     ///< object transfers in flight (self-resume scheduled)
    kCpu,       ///< charge() occupancy (self-resume scheduled)
    kUnblock,   ///< serializer dependency (deliver_unblock resumes)
    kContext,   ///< machine task-context slot (release_context resumes)
    kThrottle,  ///< outstanding-task backlog (completion path resumes)
    kCommute,   ///< commute token held by another task
    kRecovery,  ///< object's owner crashed; recovery re-homes, then resumes
  };

  struct SimTask {
    TaskNode* node = nullptr;
    Process* process = nullptr;
    MachineId machine = -1;          ///< executing machine once assigned
    MachineId creator_machine = 0;   ///< where the withonly executed
    Wait wait = Wait::kNone;
    std::vector<ObjectId> objects;   ///< declared objects, in decl order
    /// Rollback state of the current attempt; the recovery coordinator
    /// restores/clears it on kill (docs/FAULT_TOLERANCE.md).
    AttemptState attempt;
    // phase times for the queue-wait and execution histograms
    SimTime created = 0;
    SimTime dispatched = 0;
    SimTime body_start = 0;
  };

  struct Machine {
    MachineDesc desc;
    int free_contexts = 0;
    /// Application compute (charge()) serializes on the CPU proper.
    SimTime cpu_free_until = 0;
    /// Runtime bookkeeping (task creation/dispatch) runs on its own lane:
    /// real implementations process task management asynchronously with
    /// compute (interrupt-level message handling / timesharing), so a long
    /// compute slice must not stall the creator for its full duration.
    SimTime runtime_free_until = 0;
    double busy_seconds = 0;
    std::deque<TaskNode*> context_waiters;  ///< unblocked tasks re-entering
  };

  /// Adapts the simulation clock + network model to the coherence
  /// protocol's transport seam (defined in sim_engine.cpp).
  struct Transport;
  /// Engine mechanism the recovery coordinator drives (defined in
  /// sim_engine.cpp).
  struct FtHooks;

  // SerializerListener (fires inside serializer calls; engine drains after).
  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  SimTask& st(TaskNode* task);
  /// Resumes `task`'s parked process.
  void resume(TaskNode* task) { sim_.resume(st(task).process); }

  /// Dispatches + delivers queued unblocks; call after every serializer
  /// mutation.
  void post_serializer();
  /// Fills `free` with each machine's free contexts; returns their sum.
  int count_free_contexts(std::vector<int>& free) const;
  void try_dispatch();
  void assign(TaskNode* task, MachineId m);

  // --- speculative execution (sched/speculation.hpp does the protocol) -----
  /// Launches eligible pending tasks speculatively onto leftover free
  /// contexts, after the ready loop has taken everything it wants.
  void try_spec_dispatch();
  /// The body of a speculative attempt's sim process: runs the task body
  /// against the shadow buffers, then hands the context back and (if the
  /// serializer enabled the task meanwhile) decides commit/abort.
  void spec_process(TaskNode* task);
  /// The commit check of an enabled speculation, then the engine's side of
  /// the outcome.
  void decide_speculation(TaskNode* task);
  /// Fault-tolerance veto: one of the task's objects is lost or its owner
  /// is down, so the normal path must handle it (recovery parking, or the
  /// unrecoverable error), not a snapshot of possibly-doomed bytes.
  bool spec_at_risk(const SimTask& t) const;
  /// Detaches a decided or aborted speculation from its process and
  /// context; an aborted, already-enabled task re-enters normal dispatch.
  void end_speculation(SimTask& t);
  /// Crash handling: aborts every live speculation resident on `m` before
  /// the recovery coordinator scans for restartable victims.
  void abort_speculations_on(MachineId m);
  // SpeculationHooks
  std::vector<std::byte> read_bytes(ObjectId obj) override;
  void publish_bytes(TaskNode* task, ObjectId obj,
                     std::span<const std::byte> bytes) override;

  /// The body of every task's sim process.
  void task_process(TaskNode* task);
  void finish_task(TaskNode* task);

  void release_context(SimTask& t);
  void reacquire_context(SimTask& t);
  /// Parks the current task in a wait that other tasks must resolve
  /// (dependency, commute token, machine context, throttle), maintaining
  /// the runnable-task count and waking a throttled creator if this park
  /// leaves nothing else runnable.
  void park_inactive(SimTask& t, Wait kind);
  void maybe_release_throttled();
  void deliver_unblock(TaskNode* task);

  /// Occupies one lane of `t`'s machine — the compute CPU (charge()) or the
  /// runtime lane (task management) — for `seconds` of virtual time,
  /// parking the current task process until done.
  void occupy(SimTask& t, SimTime& lane_free_until, SimTime seconds);

  /// Whole-set fetch to `t.machine` via the coherence protocol (which
  /// batches per remote owner).  Immediate (returns now) on shared-memory
  /// platforms.  Under fault injection, parks `t` while a blocking item's
  /// owner is crashed but not yet recovered (a local replica satisfies a
  /// read), and throws UnrecoverableError for lost objects.
  SimTime fetch_objects(SimTask& t, std::vector<FetchItem> items);

  /// Parks the current task process until `ready_at` (no-op if reached).
  void park_until_fetched(SimTask& t, SimTime ready_at);

  /// Fetches every object in `reqs` that carries immediate rights; parks
  /// until all have arrived.
  void fetch_for(SimTask& t, const std::vector<AccessRequest>& reqs);

  // --- fault tolerance (ft/) ----------------------------------------------
  bool ft_enabled() const { return ft_ != nullptr; }
  /// Throws UnrecoverableError if `obj`'s only copy died with no stable
  /// storage.
  void ensure_recoverable(ObjectId obj) const;
  /// Engine-side half of killing an attempt (RecoveryHooks): unwind the
  /// process's wait bookkeeping, hand held commute tokens on, rewind the
  /// serializer, abort the process.
  void abort_attempt_execution(TaskNode* task);

  ClusterConfig cluster_;
  SchedPolicy sched_;
  std::unique_ptr<NetworkModel> network_;
  ObjectDirectory directory_;
  std::vector<Machine> machines_;

  std::deque<SimTask> sim_tasks_;          ///< stable storage; engine_data
  std::deque<TaskNode*> ready_;            ///< dispatch queue (FIFO base)
  std::vector<TaskNode*> to_unblock_;      ///< queued unblock notifications
  std::deque<TaskNode*> throttled_;        ///< creators suspended (Fig 7e)
  /// Speculative run-ahead (shared implementation with ThreadEngine).
  SpeculationExecutor spec_;

  /// Clock + network adapter handed to the runtime services; must outlive
  /// them and sit above sim_ so parked-process unwind still finds it.
  std::unique_ptr<Transport> transport_;
  /// The object-motion protocol (store/coherence.hpp): transfers, batched
  /// fetches, revalidation, invalidations, conversion caching.
  std::unique_ptr<CoherenceProtocol> coherence_;

  // fault tolerance (null when FaultConfig.enabled is false)
  std::unique_ptr<FtHooks> ft_hooks_;
  std::unique_ptr<RecoveryCoordinator> ft_;
  FaultyNetwork* faulty_net_ = nullptr;    ///< view into network_, if wrapped
  bool root_done_ = false;

  /// Wait-time distributions (always registered; observe() is a couple of
  /// adds, far below simulation noise, so they are not gated on tracing).
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* fetch_wait_hist_ = nullptr;
  obs::Histogram* exec_hist_ = nullptr;

  MachineId next_home_ = 0;                ///< round-robin initial placement
  /// Started-but-incomplete tasks not parked in the throttle; when this
  /// would reach zero, throttled creators are the only progress source and
  /// must run.
  int active_tasks_ = 0;
  /// True once run() has executed; the next run() resets the scheduling
  /// state for a fresh graph (objects, directory and replicas persist; the
  /// virtual clock stays monotonic across runs).  Unsupported under fault
  /// injection, whose event schedule is tied to one run.
  bool ran_ = false;

  /// Declared last: destroyed first, so parked task processes unwind while
  /// every engine structure their stacks reference is still alive.
  Simulation sim_;
};

}  // namespace jade
