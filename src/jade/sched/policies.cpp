#include "jade/sched/policies.hpp"

#include <limits>

namespace jade {

MachineId pick_machine_for_task(const ObjectDirectory& dir,
                                std::span<const ObjectId> objects,
                                std::span<const int> free_contexts,
                                bool locality, MachineId creator,
                                PlacementExplain* explain) {
  MachineId best = -1;
  std::size_t best_bytes = 0;
  int best_free = 0;
  bool best_is_creator = false;
  if (explain != nullptr) {
    explain->candidates.clear();
    explain->chosen = -1;
  }

  for (MachineId m = 0; m < static_cast<MachineId>(free_contexts.size());
       ++m) {
    if (free_contexts[m] <= 0) continue;
    const std::size_t bytes =
        locality ? dir.bytes_scoreable(objects, m) : 0;
    if (explain != nullptr)
      explain->candidates.push_back({m, bytes, free_contexts[m]});
    // The creator preference is part of the locality heuristic (tasks reuse
    // objects their creator touched); with locality off it is pure load
    // balancing.
    const bool is_creator = locality && m == creator;
    const int free = free_contexts[m];

    bool better;
    if (best == -1) {
      better = true;
    } else if (bytes != best_bytes) {
      better = bytes > best_bytes;
    } else if (is_creator != best_is_creator) {
      better = is_creator;
    } else if (free != best_free) {
      better = free > best_free;
    } else {
      better = false;  // lowest index wins ties
    }
    if (better) {
      best = m;
      best_bytes = bytes;
      best_free = free;
      best_is_creator = is_creator;
    }
  }
  if (explain != nullptr) explain->chosen = best;
  return best;
}

std::size_t pick_task_for_machine(std::span<const std::size_t> resident_bytes,
                                  bool locality, PlacementExplain* explain) {
  if (explain != nullptr) {
    explain->task_candidates.clear();
    explain->chosen_index = std::numeric_limits<std::size_t>::max();
  }
  if (resident_bytes.empty()) return std::numeric_limits<std::size_t>::max();
  std::size_t best = 0;
  std::size_t best_bytes = 0;
  for (std::size_t i = 0; i < resident_bytes.size(); ++i) {
    const std::size_t bytes = locality ? resident_bytes[i] : 0;
    if (explain != nullptr) explain->task_candidates.push_back({i, bytes});
    if (bytes > best_bytes) {  // strict: FIFO wins ties
      best = i;
      best_bytes = bytes;
    }
  }
  if (explain != nullptr) explain->chosen_index = best;
  return best;
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

MachineId pick_rehome_machine(const ObjectDirectory& dir, ObjectId obj,
                              std::span<const std::uint8_t> machine_up) {
  for (MachineId m : dir.holders(obj)) {
    if (static_cast<std::size_t>(m) < machine_up.size() && machine_up[m])
      return m;
  }
  return -1;
}

MachineId pick_restore_machine(std::span<const std::uint8_t> machine_up,
                               std::uint64_t salt) {
  std::uint64_t up = 0;
  for (std::uint8_t b : machine_up) up += b ? 1 : 0;
  if (up == 0) return -1;
  std::uint64_t skip = salt % up;
  for (std::size_t m = 0; m < machine_up.size(); ++m) {
    if (!machine_up[m]) continue;
    if (skip == 0) return static_cast<MachineId>(m);
    --skip;
  }
  return -1;  // unreachable
}

}  // namespace jade
