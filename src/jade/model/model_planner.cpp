#include "jade/model/model_planner.hpp"

namespace jade::model {

namespace {
/// The fractional predicted improvement a candidate must clear to replace
/// the base policy.
constexpr double kMargin = 0.10;
}  // namespace

std::vector<SchedPolicy> ModelPlanner::candidate_policies(
    const SchedPolicy& base) {
  std::vector<SchedPolicy> out;
  out.push_back(base);  // candidate 0: the hand-set knobs, untouched
  for (const int contexts : {1, 2, 4}) {
    for (const bool locality : {true, false}) {
      for (const bool spec : {false, true}) {
        SchedPolicy p = base;
        p.contexts_per_machine = contexts;
        p.locality = locality;
        p.spec.enabled = spec;
        if (p.contexts_per_machine == base.contexts_per_machine &&
            p.locality == base.locality &&
            p.spec.enabled == base.spec.enabled)
          continue;  // identical to candidate 0
        out.push_back(p);
      }
    }
  }
  return out;
}

SchedPolicy ModelPlanner::plan_policy(const ClusterConfig& cluster,
                                      const SchedPolicy& base) const {
  if (!model_.fitted() || !features_.valid) return base;

  const std::vector<SchedPolicy> candidates = candidate_policies(base);
  const double base_pred = model_.predict(features_, cluster, base);
  SchedPolicy best = base;
  double best_pred = base_pred;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double pred = model_.predict(features_, cluster, candidates[i]);
    // Strict < keeps the earliest (most base-like) winner on exact ties.
    if (pred < best_pred) {
      best_pred = pred;
      best = candidates[i];
    }
  }
  // Within the margin the prediction error could swamp the gain: keep the
  // hand-set policy (the tuner then *matches* the default by construction).
  if (best_pred >= (1.0 - kMargin) * base_pred) return base;
  return best;
}

}  // namespace jade::model
