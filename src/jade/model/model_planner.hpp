// ModelPlanner — policy auto-tuning through the fitted CostModel.
//
// A Planner whose plan_policy enumerates a deterministic candidate grid
// (task contexts, locality scoring, speculation) around the caller's base
// SchedPolicy, predicts each candidate's completion time on the target
// platform with the fitted model, and returns the winner — but only when
// the predicted gain clears a safety margin; within the margin the hand-set
// base policy passes through untouched, so the tuner never loses to the
// defaults by trusting a borderline prediction.
//
// Per-task placement is not the planner's: the engines call the locality
// heuristics in sched/policies directly.  The model operates at whole-run
// granularity, where its features live.
#pragma once

#include <utility>
#include <vector>

#include "jade/model/cost_model.hpp"
#include "jade/sched/policies.hpp"

namespace jade::model {

class ModelPlanner : public Planner {
 public:
  /// `model` must already be fitted and `features` valid — plan_policy
  /// degrades to the identity (base passes through) otherwise.
  ModelPlanner(CostModel model, WorkloadFeatures features)
      : model_(std::move(model)), features_(features) {}

  SchedPolicy plan_policy(const ClusterConfig& cluster,
                          const SchedPolicy& base) const override;

  /// The candidate grid plan_policy scores, in its deterministic search
  /// order (the base policy is always candidate 0).
  static std::vector<SchedPolicy> candidate_policies(const SchedPolicy& base);

  /// Model prediction for one concrete (platform, policy) pair — the bench
  /// harness uses this to report what the tuner believed.
  double predict(const ClusterConfig& cluster, const SchedPolicy& policy)
      const {
    return model_.predict(features_, cluster, policy);
  }

 private:
  CostModel model_;
  WorkloadFeatures features_;
};

}  // namespace jade::model
