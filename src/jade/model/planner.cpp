#include "jade/model/planner.hpp"

namespace jade::model {

MachineId HeuristicPlanner::place_task(const ObjectDirectory& dir,
                                       const PlacementQuery& q,
                                       PlacementExplain* explain) const {
  return pick_machine_for_task(dir, q.objects, q.free_contexts, q.locality,
                               q.creator, explain);
}

std::size_t HeuristicPlanner::select_task(const SelectQuery& q,
                                          PlacementExplain* explain) const {
  return pick_task_for_machine(q.resident_bytes, q.locality, explain);
}

std::shared_ptr<const Planner> default_planner() {
  static const std::shared_ptr<const Planner> kDefault =
      std::make_shared<HeuristicPlanner>();
  return kDefault;
}

std::string format_placement_explain(const PlacementExplain& explain) {
  std::string detail = "chosen=" + std::to_string(explain.chosen);
  for (const PlacementExplain::Candidate& c : explain.candidates) {
    detail += " m" + std::to_string(c.machine) + ":bytes=" +
              std::to_string(c.resident_bytes) +
              ",free=" + std::to_string(c.free_contexts);
  }
  return detail;
}

std::string format_task_select_explain(
    const PlacementExplain& explain, MachineId machine,
    std::span<const std::uint64_t> task_ids) {
  const std::size_t chosen = explain.chosen_index;
  std::string detail =
      "chosen=" + (chosen < task_ids.size()
                       ? std::to_string(task_ids[chosen])
                       : std::string("-1"));
  detail += " w" + std::to_string(machine);
  for (const PlacementExplain::TaskCandidate& c : explain.task_candidates) {
    detail += " t" +
              (c.index < task_ids.size() ? std::to_string(task_ids[c.index])
                                         : std::to_string(c.index)) +
              ":bytes=" + std::to_string(c.resident_bytes);
  }
  return detail;
}

}  // namespace jade::model
