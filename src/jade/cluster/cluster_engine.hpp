// ClusterEngine — Jade on real processes.
//
// The coordinator (this engine, in the host process) forks N worker
// processes connected by Unix-domain socketpairs and drives them through the
// cluster wire protocol (frame.hpp).  All semantic state is coordinator-side:
// the Serializer orders declarations, the CommuteTokenTable serializes
// commuters, the ThrottleGate paces the root, and the FailureDetector turns
// missing heartbeats into recovery.  Workers execute registered task bodies
// against local byte copies and RPC back for anything serializer-relevant.
//
// Data movement: the coordinator holds every object's canonical bytes and
// data version, and for each worker the version it last shipped to or
// received from that worker.  This shipped-version map is the only record
// of worker copies: a dispatch/grant attaches the payload iff the worker's
// version is stale, and task selection scores locality by the declared
// bytes a worker holds at the current version.
//
// Failure semantics: each worker heartbeats the coordinator; the sweep
// (ft/failure_detector.hpp) suspects silent workers, a waitpid confirms
// death, and the victim's running task — if it never spawned or ran a
// with-cont — is rewound (Serializer::abort_attempt) and re-dispatched to a
// survivor, with a pre-forked spare taking over the dead machine id.  A
// non-restartable victim aborts the run with UnrecoverableError.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "jade/cluster/channel.hpp"
#include "jade/cluster/frame.hpp"
#include "jade/cluster/options.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/engine/engine.hpp"
#include "jade/ft/failure_detector.hpp"
#include "jade/sched/policies.hpp"

namespace jade::cluster {

class ClusterEngine : public Engine, public RegisteredSpawner {
 public:
  explicit ClusterEngine(Options options, SchedPolicy sched = {});
  ~ClusterEngine() override;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // --- Engine --------------------------------------------------------------
  void run(std::function<void(TaskContext&)> root_body) override;
  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return options_.workers; }

  // --- RegisteredSpawner ---------------------------------------------------
  void spawn_registered(TaskNode* parent,
                        const std::vector<AccessRequest>& requests, int body,
                        std::vector<std::byte> args, std::string name,
                        MachineId placement) override;

  // --- introspection (tests, benches) --------------------------------------

  /// OS pid of the worker currently serving machine `m` (-1 when dark).
  /// Lets the fault-injection tests SIGKILL a real worker.
  pid_t worker_pid(MachineId m) const;

  /// Pulls `obj`'s bytes from a worker whose copy the version map says is
  /// current and compares them to the canonical buffer; true when they
  /// match (or no worker holds a current copy).  Only legal between runs.
  bool debug_probe(ObjectId obj);

 private:
  // --- structures ----------------------------------------------------------
  struct TaskRec {
    int body = -1;
    std::vector<std::byte> args;
    /// Objects whose data version this attempt already bumped at a write
    /// grant (a crash re-dispatch must not bump them again).
    std::vector<ObjectId> dirtied;
    /// A task is restartable after a crash only while it is a pure leaf:
    /// no child spawned, no with-cont (including payload flushes) executed.
    bool restartable = true;
  };

  /// One shared object as the coordinator keeps it.
  struct ObjectData {
    std::vector<std::byte> bytes;  ///< canonical content
    std::uint64_t version = 1;     ///< data version; bumped by every write
    /// Per machine id: the version last shipped to or received from that
    /// worker (0: it holds no usable copy).
    std::vector<std::uint64_t> shipped;
    bool current_on(MachineId m) const {
      return shipped[static_cast<std::size_t>(m)] == version;
    }
  };

  struct WorkerSlot {
    MachineId machine = -1;  ///< -1: spare awaiting activation
    pid_t pid = -1;
    std::unique_ptr<Channel> channel;
    bool eof = false;     ///< socket closed; death pending confirmation
    bool dead = false;    ///< confirmed exited
    TaskNode* running = nullptr;
    double busy_since = 0;
  };

  /// One worker- or root-initiated RPC parked on the serializer or on a
  /// commute token.
  struct PendingRpc {
    enum class Kind { kAcquire, kWithCont } kind = Kind::kAcquire;
    enum class Stage { kSerializer, kToken } stage = Stage::kSerializer;
    MachineId worker = -1;  ///< -1: the root thread
    ObjectId obj = kInvalidObject;
    std::uint8_t mode = 0;
    std::vector<AccessRequest> requests;  ///< with-cont only
  };

  // --- SerializerListener (record only; never re-enters the serializer) ----
  void on_task_ready(TaskNode* task) override;
  void on_task_unblocked(TaskNode* task) override;

  // --- lifecycle -----------------------------------------------------------
  void ensure_workers_started();
  void shutdown_workers();
  double wall_now() const;
  void wake_event_loop();

  // --- event loop (run()'s calling thread) ---------------------------------
  void event_loop();
  bool exit_condition_locked() const;
  void handle_frame_locked(int slot, const Frame& f);
  void sweep_locked();

  // --- frame handlers (mu_ held) -------------------------------------------
  void handle_spawn_locked(int slot, const SpawnMsg& msg);
  /// A WithCont (`acked`: answered with a WithContAck or a refusal) or a
  /// one-way Retire, whose rejection is a ProtocolError.
  void handle_with_cont_locked(int slot, const WithContMsg& msg, bool acked);
  void handle_acquire_locked(int slot, const AcquireMsg& msg);
  void handle_done_locked(int slot, const DoneMsg& msg);
  void handle_task_error_locked(int slot, const TaskErrorMsg& msg);

  /// Creates a registered-body task for the root or a worker, after
  /// checking its body index and placement (ConfigError otherwise).
  void create_registered_locked(TaskNode* parent,
                                const std::vector<AccessRequest>& requests,
                                int body, std::vector<std::byte> args,
                                std::string name, MachineId placement);

  // --- dispatch / completion (mu_ held) ------------------------------------
  void pump_locked();
  void dispatch_locked(TaskNode* task, int slot);
  void finish_task_locked(TaskNode* task);
  void drain_unblocked_locked();
  /// A commute token passed to `next`, a worker task parked on it: grants
  /// its acquire.
  void grant_token_locked(TaskNode* next);
  /// grant_token_locked as the hand-off of CommuteTokenTable::release_to
  /// and release_all.
  auto token_handoff() {
    return [this](TaskNode* next) { grant_token_locked(next); };
  }

  // --- RPC continuation (mu_ held) -----------------------------------------
  void continue_acquire_locked(TaskNode* task, PendingRpc& rpc);
  void grant_acquire_locked(TaskNode* task, const PendingRpc& rpc);
  void finish_with_cont_locked(TaskNode* task, const PendingRpc& rpc);
  /// Queues the failed AcquireAck or WithContAck (per `kind`) carrying
  /// `why` across the process boundary.
  void refuse_locked(Channel& ch, PendingRpc::Kind kind, TaskNode* task,
                     ObjectId obj, const std::exception& why);

  // --- Engine: object bytes (each takes mu_) -------------------------------
  void create_storage(const ObjectInfo& info, MachineId home) override;
  void write_storage(ObjectId obj, std::span<const std::byte> data) override;
  std::vector<std::byte> read_storage(ObjectId obj) override;

  // --- data movement (mu_ held) --------------------------------------------
  bool known_locked(ObjectId obj) const;
  /// `obj`'s entry; asserts that the coordinator allocated it.
  ObjectData& object_locked(ObjectId obj);
  /// Applies `task`'s writeback payload from worker `from` to the canonical
  /// buffer, bumps the data version, and marks every other worker's copy
  /// stale.  ProtocolError unless `task` holds an immediate write or
  /// commute right on `obj` and the payload has its size.
  void apply_writeback_locked(TaskNode* task, ObjectId obj,
                              std::span<const std::byte> data, MachineId from);
  /// A task on `w` ended without its writebacks applied (it failed, or the
  /// run is aborting): `w`'s copies of the objects it was granted write on
  /// may hold writes no version has, so they stop counting as current.
  void forget_unsaved_writes_locked(TaskNode* task, MachineId w);
  /// The one payload-ship rule: a grant to `w` carries `obj`'s canonical
  /// bytes iff `w`'s shipped version is stale (returns true and fills
  /// `payload`).  A write grant first opens a new data version, once per
  /// attempt, so every other worker's copy goes stale.
  bool ship_payload_locked(ObjectId obj, MachineId w, bool write,
                           TaskRec& rec, std::vector<std::byte>& payload);
  /// `task`'s current rights on `obj`, with the payload shipped (by
  /// ship_payload_locked) when the `granted` immediate rights read or write.
  ObjectShip make_ship_locked(TaskNode* task, ObjectId obj, MachineId w,
                              std::uint8_t granted, TaskRec& rec);

  // --- failure handling (mu_ held) -----------------------------------------
  void handle_worker_death_locked(int slot);
  void abort_run_locked(std::exception_ptr error);
  /// Root-side: rethrows the run's first error (or UnrecoverableError)
  /// once the run is aborting.
  void throw_if_aborting_locked() const;

  int slot_of_machine(MachineId m) const;

  // --- configuration & construction-time services --------------------------
  Options options_;
  SchedPolicy sched_;
  std::unique_ptr<FailureDetector> detector_;

  // --- process state -------------------------------------------------------
  bool started_ = false;
  std::vector<WorkerSlot> slots_;  ///< workers then spares
  int self_pipe_[2] = {-1, -1};
  std::chrono::steady_clock::time_point epoch_;

  // --- run state (guarded by mu_) ------------------------------------------
  mutable std::mutex mu_;
  std::condition_variable root_cv_;
  std::deque<TaskNode*> ready_;
  std::vector<TaskNode*> unblocked_;
  std::unordered_map<TaskNode*, TaskRec> recs_;
  std::unordered_map<TaskNode*, PendingRpc> pending_;
  std::vector<ObjectData> data_;  ///< indexed by ObjectId - 1
  bool root_done_ = false;
  bool root_unblocked_ = false;
  bool aborting_ = false;
  std::exception_ptr first_error_;

  // --- cluster counters (published as cluster.* metrics) -------------------
  std::uint64_t dispatches_ = 0;
  std::uint64_t payload_bytes_shipped_ = 0;
  std::uint64_t writeback_bytes_ = 0;
  std::uint64_t rpc_acquires_ = 0;
  std::uint64_t rpc_with_conts_ = 0;
  std::uint64_t rpc_spawns_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t worker_deaths_ = 0;
  std::uint64_t workers_respawned_ = 0;
};

}  // namespace jade::cluster
