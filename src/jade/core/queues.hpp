// The serializer: per-object declaration queues in serial program order.
//
// This implements the paper's concurrency-detection mechanism (Sections 2,
// 3.3, 4.2).  Every shared object has a queue of declaration records ordered
// by the position of the declaring task in the *serial* execution of the
// program:
//
//   * a task created by the root is appended at the tail;
//   * a child task's record is inserted immediately before its parent's
//     record — in the serial execution the child's body runs at its creation
//     point, inside the parent, before anything the parent does afterwards
//     and before any later sibling;
//
// A record is *enabled* when no earlier record in its queue conflicts with
// it (readers share, writers are exclusive, commuting updates share with
// each other).  A task starts when all its immediate records are enabled;
// deferred records reserve the queue position without gating the start.
// Retiring rights (no_rd/no_wr, or task completion) unlinks or weakens
// records, which can enable successors — that is all the synchronization
// Jade ever needs, and it is what makes every execution equivalent to the
// serial one.
//
// The serializer is engine-agnostic and single-threaded by contract: callers
// (the engines) serialize calls with their own lock or handoff discipline.
// Three calls are exempt, and ThreadEngine makes them without its lock:
// prepare_task (builds and checks a task, touching no serializer state),
// task_started (one atomic state store and one atomic backlog decrement),
// and granted (a running task's lookup of its own record).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jade/core/access.hpp"
#include "jade/core/object.hpp"
#include "jade/support/intrusive_list.hpp"
#include "jade/support/time.hpp"

namespace jade {

class TaskContext;
class TaskNode;
struct ObjectQueue;
struct TenantCtl;

/// One task's declared access to one object, linked into that object's
/// declaration queue.
struct DeclRecord : IntrusiveNode {
  TaskNode* task = nullptr;
  ObjectId obj = kInvalidObject;
  std::uint8_t immediate = 0;  ///< rights the task may exercise now
  std::uint8_t deferred = 0;   ///< rights reserved for later conversion

  /// How this record blocks *other* tasks: deferred rights block successors
  /// exactly like immediate ones (the owner may convert them at any time).
  std::uint8_t effective() const {
    return static_cast<std::uint8_t>(immediate | deferred);
  }

  /// True while this record contributes to its task's start_pending /
  /// block_pending counter (i.e. the task is waiting for it to enable).
  bool counted = false;
  /// Bits whose enablement the waiting task requires (start: immediate;
  /// acquire/with-cont: the requested mode).
  std::uint8_t wait_bits = 0;
  /// Rights the task has actually exercised (accessor acquisitions so far).
  /// A declared-but-unexercised write is what makes a successor speculable:
  /// the bytes it would contest have not been touched yet.
  std::uint8_t exercised = 0;
  /// Set when a child's record is linked directly ahead of this one.
  /// Written under the caller's discipline, by whichever thread links the
  /// child; read without it by the owner's thread (Serializer::granted),
  /// which the caller must first make see every such write.
  bool child_ahead = false;
  /// The queue this record was linked into, so retirement needs no lookup.
  ObjectQueue* queue = nullptr;
};

enum class TaskState : std::uint8_t {
  kPending,   ///< created; waiting for immediate records to enable
  kReady,     ///< all immediate records enabled; not yet executing
  kRunning,   ///< body executing (possibly blocked in with-cont/acquire)
  kCompleted,
};

/// The semantic state of one task.  Engine-specific execution state hangs
/// off the generic fields at the bottom.
class TaskNode {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  TaskNode* parent() const { return parent_; }
  bool is_root() const { return parent_ == nullptr; }
  /// Relaxed: ThreadEngine starts tasks without its lock, so another thread
  /// may read a state mid-change.  Every decision that needs more than
  /// "not pending any more" is made under the engine's discipline.
  TaskState state() const { return state_.load(std::memory_order_relaxed); }

  /// The server tenant this task runs for, or nullptr for a host task.
  /// Inherited from the parent unless create_task received an explicit
  /// tenant (a *program root* — the entry task of one tenant's graph).
  TenantCtl* tenant() const { return tenant_; }
  /// True while an engine runs this task speculatively (SchedPolicy::spec):
  /// its body executes against snapshot-isolated buffers, bypassing the
  /// serializer, while its records keep their queue positions untouched.
  bool speculating() const { return speculating_; }

  /// The record this task holds for `obj`, or nullptr.  Most tasks declare
  /// a handful of objects, so this is a linear scan of an inline array —
  /// faster than a hash probe at the sizes that occur in practice, and free
  /// of per-record node allocations.
  DeclRecord* find_record(ObjectId obj) const;

  /// Number of records (for tests/benches).
  std::size_t record_count() const { return ordered_records_.size(); }

  /// Records in declaration order — deterministic, unlike map order, which
  /// matters wherever iteration order affects simulated timing.
  const std::vector<DeclRecord*>& ordered_records() const {
    return ordered_records_;
  }

  // --- engine-owned fields -------------------------------------------------
  std::function<void(TaskContext&)> body;
  /// Explicit placement from withonly_on (Section 4.5), or -1.
  MachineId placement = -1;
  /// Machine the engine assigned the task to (SimEngine), or -1.
  MachineId assigned_machine = -1;
  /// Accumulated declared work (charge() units), for cost accounting.
  double charged_work = 0;
  /// Opaque per-engine execution state.
  void* engine_data = nullptr;

 private:
  friend class Serializer;

  /// Declarations at or below this count live inline in the TaskNode (no
  /// allocation at all); beyond it they come from one array the task owns.
  /// 8 covers the overwhelming majority of tasks in the paper's workloads
  /// (Cholesky external updates declare 4 objects).
  static constexpr std::size_t kInlineRecords = 8;

  void set_state(TaskState s) { state_.store(s, std::memory_order_relaxed); }

  /// Storage for the task's `n`-th record.
  DeclRecord* record_slot(std::size_t n) {
    if (n < kInlineRecords) return &inline_records_[n];
    return &extra_records_[n - kInlineRecords];
  }

  std::uint64_t id_ = 0;
  std::string name_;
  TaskNode* parent_ = nullptr;
  std::atomic<TaskState> state_{TaskState::kPending};
  std::uint32_t start_pending_ = 0;  ///< immediate records not yet enabled
  std::uint32_t block_pending_ = 0;  ///< records a running task waits on
  TenantCtl* tenant_ = nullptr;
  /// Entry task of a tenant's graph: exempt from the coverage rule, like a
  /// root child, since its host parent never made its declarations.
  bool program_root_ = false;
  bool speculating_ = false;
  std::array<DeclRecord, kInlineRecords> inline_records_;
  /// Records past kInlineRecords, sized once when the task is prepared.
  std::unique_ptr<DeclRecord[]> extra_records_;
  std::vector<DeclRecord*> ordered_records_;
};

/// Per-object queue with counters enabling O(1) answers in the common
/// cases.  Without them, widely-read objects (e.g. the index structures
/// every Cholesky task declares rd on) make enabledness checks and
/// post-completion rescans linear in the number of outstanding tasks —
/// quadratic overall.
struct ObjectQueue {
  IntrusiveList<DeclRecord> records;
  /// Records whose effective bits include write or commute (block reads).
  std::size_t cnt_wc = 0;
  /// Records whose effective bits include read or write (block commutes).
  std::size_t cnt_rw = 0;
  /// Records some task is currently waiting on (counted == true).
  std::size_t cnt_counted = 0;
  /// Exercised write/commute acquisitions (plus committed speculative
  /// writes) on this object — the speculation commit check's clock.
  std::uint64_t write_epoch = 0;
};

/// Receives serializer notifications.  Called synchronously from within
/// serializer operations; implementations must not re-enter the serializer.
class SerializerListener {
 public:
  virtual ~SerializerListener() = default;
  /// All immediate records enabled; the engine may schedule the task.
  virtual void on_task_ready(TaskNode* task) = 0;
  /// A running task that blocked (with-cont conversion or accessor
  /// acquisition) may proceed.
  virtual void on_task_unblocked(TaskNode* task) = 0;
};

class Serializer {
 public:
  explicit Serializer(SerializerListener* listener);
  ~Serializer();

  Serializer(const Serializer&) = delete;
  Serializer& operator=(const Serializer&) = delete;

  /// The implicit main task (Section 3.3's "original task"); it owns every
  /// object and its children append at queue tails.
  TaskNode* root() { return root_; }

  /// Creates a task with the given specification, as a child of `parent`
  /// (which must be running, or be the root): link_task(prepare_task(...)).
  /// Emits on_task_ready before returning if nothing blocks the task.
  TaskNode* create_task(TaskNode* parent,
                        const std::vector<AccessRequest>& requests,
                        std::function<void(TaskContext&)> body,
                        std::string name = "", TenantCtl* tenant = nullptr) {
    return link_task(prepare_task(parent, requests, std::move(body),
                                  std::move(name), tenant));
  }

  /// Builds a task and its records and runs every check on its declaration,
  /// but touches no serializer state, so a caller may run it outside its
  /// discipline, on the thread running `parent`.  Enforces the hierarchy
  /// rule: the child's rights per object must be covered by the parent's
  /// record.  A non-null `tenant` makes the task a *program root* of that
  /// tenant; otherwise the task inherits the parent's tenant (if any).
  /// Tenant tasks may only declare accesses to their own or shared objects
  /// (checked via the tenant oracle).  Any error leaves the serializer
  /// exactly as it was.
  std::unique_ptr<TaskNode> prepare_task(
      TaskNode* parent, const std::vector<AccessRequest>& requests,
      std::function<void(TaskContext&)> body, std::string name = "",
      TenantCtl* tenant = nullptr) const;

  /// Publishes a prepared task: assigns its id (and default name), links
  /// its records into their queues in serial order, and emits on_task_ready
  /// if nothing blocks it.
  TaskNode* link_task(std::unique_ptr<TaskNode> task);

  /// Marks a ready task as executing.  Touches only the task's atomic state
  /// and the atomic backlog, so the thread that claimed the task may call
  /// it outside the caller's discipline.
  void task_started(TaskNode* task);

  /// True when the running `task` holds `mode` on `obj` as an immediate,
  /// non-commute right and has linked no child's record ahead of it.  With
  /// the hierarchy rule enforced, nothing that conflicts can then be ahead
  /// (any other record that lands ahead is covered by a compatible one
  /// already there), so the access needs no acquire().  Reads only the
  /// task's own records: rights that only the task's thread writes, and
  /// child_ahead flags, which the caller must have published to that
  /// thread.  That thread may call it outside the caller's discipline.
  bool granted(const TaskNode* task, ObjectId obj, std::uint8_t mode) const;

  /// Applies a with-cont specification update to a running task: converts
  /// deferred rights to immediate and/or retires rights.  Returns true when
  /// the task must block until on_task_unblocked fires (some converted
  /// record is not yet enabled).
  bool update_spec(TaskNode* task, const std::vector<AccessRequest>& requests);

  /// Validates an accessor acquisition for `mode` bits and determines
  /// whether the task must wait (its own earlier-created children may hold
  /// conflicting records ahead of it).  Returns true when the task must
  /// block until on_task_unblocked fires.  Throws UndeclaredAccessError if
  /// the task never declared (or has retired / not yet converted) the right.
  bool acquire(TaskNode* task, ObjectId obj, std::uint8_t mode);

  /// Retires all of the task's records and marks it completed.
  void complete_task(TaskNode* task);

  /// Fault injection (ft/): a running attempt of `task` was killed before
  /// completing.  Rewinds the task to kReady so the engine can re-dispatch
  /// it: counted records are uncounted, block_pending_ clears, and every
  /// record keeps its queue position and full declared bits (the caller
  /// guarantees the task never weakened them — only leaf tasks that never
  /// ran a with-cont are restartable).  Because a leaf's records stay
  /// linked, everything that was waiting on it still waits; the serial
  /// order is unchanged and a re-execution is indistinguishable from a
  /// slower first execution.
  void abort_attempt(TaskNode* task);

  // --- speculative execution (SchedPolicy::spec) ---------------------------
  //
  // A pending task may run *speculatively* when every record it waits on is
  // blocked only by predecessors that cannot have changed the contested
  // bytes yet: pure readers (which never change bytes), or write
  // declarations whose write right is still unexercised.  The engine
  // snapshots the declared objects, runs the body against the snapshots,
  // and decides at enable time — the serializer is the commit check:
  // commit order is exactly the serial enable order, and per-queue write
  // epochs (bumped on every exercised write acquisition) tell the engine
  // whether a conflicting write materialized since the snapshot.
  // Speculation never touches the queues: records stay linked and
  // uncounted/counted exactly as a non-speculating pending task's would,
  // so with spec off nothing here executes and behavior is byte-identical.

  /// True when `task` (pending) qualifies for speculative dispatch: every
  /// counted record waits on a non-commute right and every conflicting
  /// predecessor is a pure reader or an unexercised non-commute writer.
  /// Objects contested by an unexercised writer are appended to
  /// `contested` (when non-null) — the conflict-history throttle's key.
  bool spec_eligible(TaskNode* task, std::vector<ObjectId>* contested) const;

  /// Marks a pending task as running speculatively (serializer state is
  /// otherwise untouched; the flag only reroutes engine notifications).
  void spec_start(TaskNode* task);

  /// Abandons a speculation.  The task keeps whatever state it reached
  /// (kPending or kReady) and is dispatched normally from there.
  void spec_abort(TaskNode* task);

  /// Commits a speculation whose task the serializer has enabled (kReady):
  /// transitions it to running exactly as task_started would.  The caller
  /// then applies the buffered writes and calls complete_task, so the
  /// canonical bytes land before any successor is enabled.
  void spec_commit(TaskNode* task);

  /// Number of exercised write/commute acquisitions on `obj`'s queue so
  /// far (0 if the object was never declared).  An engine captures epochs
  /// at snapshot time and re-checks them at commit time.
  std::uint64_t write_epoch(ObjectId obj) const;

  /// Records an engine-applied write to `obj` outside acquire() — a
  /// committed speculation's buffered write — so concurrent speculations
  /// that snapshotted the old bytes fail their epoch check.
  void bump_write_epoch(ObjectId obj) { ++queue_for(obj).write_epoch; }

  /// Tasks created and not yet completed (excluding the root).
  std::uint64_t outstanding() const { return outstanding_; }

  /// Tasks created but not yet started — the engine's throttling signal
  /// (Section 3.3, Figure 7e: "the original task is creating tasks faster
  /// than they are being consumed").  Deliberately excludes running tasks:
  /// suspended creators must not count toward the backlog they wait on.
  /// A seq_cst load, paired with task_started's decrement.
  std::uint64_t backlog() const { return unstarted_.load(); }

  /// Total tasks ever created (excluding the root).
  std::uint64_t tasks_created() const { return next_task_id_ - 1; }

  /// Snapshot of an object's queue as (task id, effective bits) pairs, in
  /// serial order — used by tests and the task-graph bench.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> queue_snapshot(
      ObjectId obj) const;

  /// Installs the ownership oracle consulted when a *tenant* task declares
  /// an access: given an object id, return the owning tenant (kSharedTenant
  /// for host objects).  Called with the engine's serializer discipline held.
  void set_tenant_oracle(std::function<TenantId(ObjectId)> oracle) {
    tenant_oracle_ = std::move(oracle);
  }

  /// Discards every task, record, and queue and recreates a fresh running
  /// root, restoring the state of a newly constructed serializer (task ids
  /// restart at 1, so an identical graph replays with identical ids).  The
  /// engines call this between sequential runs on one reused instance; no
  /// outstanding-task precondition — a failed run's leftovers are dropped.
  void reset();

 private:
  ObjectQueue& queue_for(ObjectId obj);

  void link_before(ObjectQueue& q, DeclRecord* pos, DeclRecord* rec);
  void link_back(ObjectQueue& q, DeclRecord* rec);
  void unlink(ObjectQueue& q, DeclRecord* rec);
  void count_effect(ObjectQueue& q, std::uint8_t bits, int delta);
  void set_counted(ObjectQueue& q, DeclRecord* rec, bool counted);

  /// True when no record earlier in the queue conflicts with `bits`.
  bool is_enabled(ObjectQueue& q, DeclRecord* rec, std::uint8_t bits) const;

  /// Re-evaluates counted records in `q` after a record weakened or left;
  /// fires ready/unblocked notifications for tasks whose counters reach 0.
  /// Collects them in two member vectors, which keep their capacity.
  void reevaluate(ObjectQueue& q);

  /// Removes bits from a record; unlinks it when no bits remain.  Returns
  /// true if the queue changed in a way that can enable successors.
  bool weaken_record(ObjectQueue& q, DeclRecord* rec, std::uint8_t bits);

  void check_coverage(TaskNode* parent, const AccessRequest& req) const;

  void make_root();

  SerializerListener* listener_;
  std::function<TenantId(ObjectId)> tenant_oracle_;
  TaskNode* root_;
  /// Every task until reset().  TaskNodes are heap-pinned, and so are
  /// their records, which the intrusive queue links require.
  std::vector<std::unique_ptr<TaskNode>> tasks_;
  std::unordered_map<ObjectId, ObjectQueue> queues_;
  std::uint64_t next_task_id_ = 1;
  std::uint64_t outstanding_ = 0;
  /// Atomic: task_started runs outside the caller's discipline.
  std::atomic<std::uint64_t> unstarted_{0};
  /// Task currently inside update_spec/acquire; its own unblock
  /// notification is suppressed (the return value carries it).
  TaskNode* in_update_ = nullptr;
  std::vector<TaskNode*> now_ready_;
  std::vector<TaskNode*> now_unblocked_;
};

}  // namespace jade
