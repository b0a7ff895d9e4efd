// Scheduling policy knobs and selection heuristics.
//
// Section 5 lists the optimizations the Jade implementation applies; each
// has a knob here so the ablation bench (bench_ablation) can measure it:
//   * Dynamic Load Balancing      — idle machines pull ready tasks
//   * Matching Exploited w/ Available Concurrency — task-creation throttling
//   * Enhancing Locality          — prefer machines already holding a task's
//                                   objects
//   * Hiding Latency with Concurrency — multiple task contexts per machine,
//                                   so one task's object fetches overlap
//                                   another task's execution (Figure 7(f))
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/store/directory.hpp"
#include "jade/support/time.hpp"

namespace jade {

struct ClusterConfig;

/// Suppression of excess task creation (Section 3.3, Figure 7(e)): when the
/// number of created-but-incomplete tasks exceeds high_water, the creating
/// task is suspended until the backlog drains to low_water.  Serial semantics makes
/// this deadlock-free: a task never waits for a later task.
struct ThrottleConfig {
  bool enabled = false;
  std::uint64_t high_water = 512;
  std::uint64_t low_water = 256;
};

/// Speculative task execution (Specx-style run-ahead with deterministic
/// rollback).  When workers sit idle and a pending task's only unresolved
/// predecessors hold *write* declarations that have not yet touched the
/// contested objects, the engine may dispatch it speculatively against
/// snapshot-isolated buffers.  At predecessor retirement the Serializer is
/// the commit check: if no conflicting write materialized the speculation
/// commits (its buffered writes become the canonical bytes, in serial
/// order); otherwise it aborts — buffers discarded, charge rewound, task
/// re-run normally when actually enabled.  All-off (`enabled = false`)
/// preserves legacy behavior to the byte (no new trace events, no state).
struct SpecConfig {
  bool enabled = false;
  /// Max simultaneously live speculations (the speculation budget).
  int max_live = 8;
  /// Per-object conflict-history throttle: after this many aborted
  /// speculations contested on an object, stop speculating past it.
  int conflict_limit = 2;
};

struct SchedPolicy {
  /// Resident task slots per machine; >1 lets object fetches for one task
  /// overlap execution of another (latency hiding).
  int contexts_per_machine = 2;
  /// Prefer placing tasks where their objects already live.
  bool locality = true;
  ThrottleConfig throttle;
  /// The SimEngine data-movement protocol (docs/PERFORMANCE.md).  On, five
  /// mechanisms save payloads and messages: batched per-owner requests,
  /// replica revalidation, multicast invalidations, cached conversions and
  /// deferred-read prefetch.  Off is the paper's per-object request, copy
  /// and invalidate protocol, which bench_comm_protocol measures against.
  bool optimized_comm = true;
  SpecConfig spec;
};

/// Plans the whole policy for a run before its engine is built
/// (RuntimeConfig::planner, docs/MODEL.md).  model::ModelPlanner searches
/// the policy space with a fitted cost model.  Placement during the run is
/// not a planner decision: the engines call the heuristics below.
class Planner {
 public:
  virtual ~Planner() = default;

  /// The policy for a run on `cluster`, starting from the caller's `base`
  /// knobs.
  virtual SchedPolicy plan_policy(const ClusterConfig& cluster,
                                  const SchedPolicy& base) const = 0;
};

/// Why a placement decision went the way it did: every machine that had a
/// free context, with the locality-score inputs the heuristic compared.
/// Filled only when a caller asks (tracing); the hot path passes nullptr.
struct PlacementExplain {
  struct Candidate {
    MachineId machine = -1;
    std::size_t resident_bytes = 0;  ///< declared-object bytes already on it
    int free_contexts = 0;
  };
  std::vector<Candidate> candidates;  ///< machine-index order
  MachineId chosen = -1;

  /// The inverse decision (pick_task_for_machine, ClusterEngine dispatch):
  /// which of several ready tasks an idle machine took.  Candidates are
  /// window indices into the caller's task list, with the locality score
  /// each was compared on; `candidates`/`chosen` above stay untouched.
  struct TaskCandidate {
    std::size_t index = 0;           ///< caller's candidate-window index
    std::size_t resident_bytes = 0;  ///< declared bytes resident on machine
  };
  std::vector<TaskCandidate> task_candidates;  ///< window order
  std::size_t chosen_index = static_cast<std::size_t>(-1);
};

/// Picks the machine to run a ready task on, among machines with free
/// contexts, or -1 if none qualifies.
///
/// With locality on: the machine holding the most bytes of the task's
/// declared objects wins; ties prefer the creating machine, then more free
/// contexts, then the lowest index (deterministic).  With locality off:
/// most free contexts (pure load balancing), ties to lowest index.
///
/// `explain`, when non-null, receives the full candidate set and the choice.
MachineId pick_machine_for_task(const ObjectDirectory& dir,
                                std::span<const ObjectId> objects,
                                std::span<const int> free_contexts,
                                bool locality, MachineId creator,
                                PlacementExplain* explain = nullptr);

/// Picks which of several ready tasks an idle machine should take: with
/// locality on, the task with the most resident bytes; ties (and locality
/// off) fall to the oldest task (FIFO, serial-order friendly).
/// `resident_bytes[i]` counts ready task i's declared bytes the machine
/// already holds.  Returns the winning index, or SIZE_MAX if
/// `resident_bytes` is empty.
///
/// `explain`, when non-null, receives the scored window
/// (PlacementExplain::task_candidates) and the winning index.
std::size_t pick_task_for_machine(std::span<const std::size_t> resident_bytes,
                                  bool locality,
                                  PlacementExplain* explain = nullptr);

/// Renders a machine-for-task explain in the exact layout SimEngine has
/// always emitted in its "sched.place" events:
///   "chosen=N m0:bytes=B,free=F m1:bytes=B,free=F ..."
/// (trace byte-compatibility depends on this format; see
/// obs_trace_determinism_test).
std::string format_placement_explain(const PlacementExplain& explain);

/// Renders a task-for-machine explain ("sched.place" on ClusterEngine):
///   "chosen=T wM t<id>:bytes=B t<id>:bytes=B ..."
/// `task_ids[i]` is the task id of window candidate i.
std::string format_task_select_explain(
    const PlacementExplain& explain, MachineId machine,
    std::span<const std::uint64_t> task_ids);

/// Home re-election after a crash: the lowest-indexed surviving machine that
/// already holds a copy of `obj` (its replica becomes the authoritative
/// copy, so re-homing costs a control message, not a data transfer).
/// Returns -1 if no up machine holds a copy.  `machine_up` is a 0/1 mask.
MachineId pick_rehome_machine(const ObjectDirectory& dir, ObjectId obj,
                              std::span<const std::uint8_t> machine_up);

/// Target for restoring a sole-copy object from stable storage: the
/// (salt mod up_count)-th surviving machine, spreading restore load across
/// survivors deterministically.  Returns -1 if no machine is up.
MachineId pick_restore_machine(std::span<const std::uint8_t> machine_up,
                               std::uint64_t salt);

}  // namespace jade
