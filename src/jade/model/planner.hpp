// Planner — the pluggable policy-decision seam (docs/MODEL.md).
//
// Every scattered policy decision the engines used to hard-wire routes
// through this interface: placement scoring (machine-for-task and
// task-for-machine) and whole-policy planning (contexts, locality, throttle
// windows, the comm protocol, speculation budgets).  SimEngine and
// ClusterEngine hold a Planner; ThreadEngine places by work stealing and
// holds none.  The default HeuristicPlanner reproduces the legacy heuristics
// to the byte (same choices, same trace detail strings), so a run that never
// sets RuntimeConfig::planner is indistinguishable from the pre-seam engines.
//
// ModelPlanner (model_planner.hpp) is the interesting implementation: it
// predicts completion time with a trace-fitted CostModel and searches the
// policy space before the run starts.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "jade/mach/machine.hpp"
#include "jade/model/features.hpp"
#include "jade/sched/policies.hpp"
#include "jade/store/directory.hpp"

namespace jade::model {

/// Inputs to a machine-for-task placement decision (SimEngine dispatch).
struct PlacementQuery {
  std::span<const ObjectId> objects;      ///< the task's declared objects
  std::span<const int> free_contexts;     ///< per machine, index order
  bool locality = true;                   ///< already platform-adjusted
  MachineId creator = 0;                  ///< where the withonly executed
};

/// Inputs to a task-for-machine selection (ClusterEngine dispatch).
struct SelectQuery {
  /// Per ready task: its declared bytes the idle machine already holds.
  std::span<const std::size_t> resident_bytes;
  bool locality = true;
};

class Planner {
 public:
  virtual ~Planner() = default;

  /// Identifies the planner in logs/benches ("heuristic", "model", ...).
  virtual const char* name() const = 0;

  /// Picks the machine a ready task should run on, among machines with free
  /// contexts; -1 when none qualifies.  `explain`, when non-null, receives
  /// every candidate and the choice (callers pass it only when tracing).
  virtual MachineId place_task(const ObjectDirectory& dir,
                               const PlacementQuery& q,
                               PlacementExplain* explain = nullptr) const = 0;

  /// Picks which ready task an idle machine should take (window indices into
  /// `q.resident_bytes`); SIZE_MAX when the window is empty.
  virtual std::size_t select_task(const SelectQuery& q,
                                  PlacementExplain* explain = nullptr)
      const = 0;

  /// Plans the whole policy for a run on `cluster`, starting from the
  /// caller's `base` knobs.  The default is the identity: hand-set knobs
  /// pass through untouched.  ModelPlanner searches the policy space here.
  virtual SchedPolicy plan_policy(const ClusterConfig& cluster,
                                  const SchedPolicy& base) const {
    (void)cluster;
    return base;
  }
};

/// The legacy heuristics behind the seam: delegates to
/// pick_machine_for_task / pick_task_for_machine (sched/policies.cpp),
/// byte-identical choices and explains.
class HeuristicPlanner : public Planner {
 public:
  const char* name() const override { return "heuristic"; }
  MachineId place_task(const ObjectDirectory& dir, const PlacementQuery& q,
                       PlacementExplain* explain) const override;
  std::size_t select_task(const SelectQuery& q,
                          PlacementExplain* explain) const override;
};

/// Process-wide shared default planner (a HeuristicPlanner); engines fall
/// back to it when RuntimeConfig::planner is unset.
std::shared_ptr<const Planner> default_planner();

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

}  // namespace jade::model
