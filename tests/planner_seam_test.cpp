// Placement in sched/policies: golden-format tests of the explain
// renderers, golden locality-score tests over PlacementExplain, and the
// contract that every engine narrates its placements — ThreadEngine and
// ClusterEngine emit the same structured "sched.place" instants SimEngine
// always has.  An unfitted ModelPlanner changes no byte of an export.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "jade/apps/cholesky.hpp"
#include "jade/cluster/cluster_engine.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/model/model_planner.hpp"
#include "jade/obs/chrome_trace.hpp"
#include "jade/sched/policies.hpp"

namespace jade {
namespace {

ObjectInfo make_info(ObjectId id, std::size_t doubles) {
  return ObjectInfo{id, TypeDescriptor::array_of<double>(doubles),
                    "o" + std::to_string(id)};
}

/// The sched_test directory: 800 B on machine 0, 80 B on 1, 8 B on 2.
class SeamTest : public ::testing::Test {
 protected:
  SeamTest() : dir(3) {
    dir.add_object(make_info(1, 100), 0);
    dir.add_object(make_info(2, 10), 1);
    dir.add_object(make_info(3, 1), 2);
  }
  ObjectDirectory dir;
};

// --- golden explain-format strings -----------------------------------------
// The trace byte-compatibility contract (obs_trace_determinism_test) rides
// on these exact layouts; a formatting change must be deliberate.

TEST(ExplainFormat, PlacementGolden) {
  PlacementExplain e;
  e.chosen = 1;
  e.candidates = {{0, 800, 2}, {1, 80, 1}, {2, 0, 2}};
  EXPECT_EQ(format_placement_explain(e),
            "chosen=1 m0:bytes=800,free=2 m1:bytes=80,free=1 "
            "m2:bytes=0,free=2");
}

TEST(ExplainFormat, PlacementNoneQualifiedGolden) {
  PlacementExplain e;  // chosen stays -1, no candidates
  EXPECT_EQ(format_placement_explain(e), "chosen=-1");
}

TEST(ExplainFormat, TaskSelectGolden) {
  PlacementExplain e;
  e.chosen_index = 1;
  e.task_candidates = {{0, 8}, {1, 800}};
  const std::uint64_t ids[] = {41, 42};
  EXPECT_EQ(format_task_select_explain(e, 3, ids),
            "chosen=42 w3 t41:bytes=8 t42:bytes=800");
}

TEST(ExplainFormat, TaskSelectEmptyWindowGolden) {
  PlacementExplain e;  // chosen_index stays SIZE_MAX
  EXPECT_EQ(format_task_select_explain(e, 0, {}), "chosen=-1 w0");
}

// --- golden locality scores of the placement heuristics --------------------

TEST_F(SeamTest, PlaceTaskScoresResidentBytesPerCandidate) {
  const ObjectId objs[] = {1, 2};  // 800 B on m0, 80 B on m1
  const int free[] = {1, 1, 1};
  PlacementExplain e;
  const MachineId chosen = pick_machine_for_task(
      dir, objs, free, /*locality=*/true, /*creator=*/2, &e);
  EXPECT_EQ(chosen, 0);
  EXPECT_EQ(format_placement_explain(e),
            "chosen=0 m0:bytes=800,free=1 m1:bytes=80,free=1 "
            "m2:bytes=0,free=1");
}

TEST_F(SeamTest, PlaceTaskExcludesBusyMachinesFromCandidates) {
  const ObjectId objs[] = {1};
  const int free[] = {0, 2, 1};  // m0 holds the bytes but has no context
  PlacementExplain e;
  const MachineId chosen =
      pick_machine_for_task(dir, objs, free, true, /*creator=*/1, &e);
  EXPECT_EQ(chosen, 1);  // tie on bytes falls to the creator
  EXPECT_EQ(format_placement_explain(e),
            "chosen=1 m1:bytes=0,free=2 m2:bytes=0,free=1");
}

TEST_F(SeamTest, SelectTaskScoresWindowAgainstMachine) {
  // Tasks declaring objects {3}, {1}, {2}; object 1's 800 B live on m0.
  const std::size_t on_m0[] = {0, 800, 0};
  PlacementExplain e;
  const std::size_t pick = pick_task_for_machine(on_m0, /*locality=*/true, &e);
  EXPECT_EQ(pick, 1u);
  const std::uint64_t ids[] = {10, 11, 12};
  EXPECT_EQ(format_task_select_explain(e, 0, ids),
            "chosen=11 w0 t10:bytes=0 t11:bytes=800 t12:bytes=0");
}

// --- every engine narrates its placements ----------------------------------

void run_cholesky(Runtime& rt) {
  const auto a = apps::paper_example_matrix();
  auto jm = apps::upload_matrix(rt, a);
  rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
  (void)apps::download_matrix(rt, jm);
}

/// All "sched.place" instants in the recorded stream, with their detail.
std::vector<obs::TraceEvent> placement_events(const Runtime& rt) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : rt.trace_events())
    if (e.cat == obs::Subsystem::kSched &&
        std::string(e.name) == "sched.place")
      out.push_back(e);
  return out;
}

TEST(PlannerSeamEngines, ThreadEngineEmitsStructuredPlacements) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 3;
  cfg.obs.trace = true;
  Runtime rt(cfg);
  run_cholesky(rt);
  const auto places = placement_events(rt);
  ASSERT_FALSE(places.empty());
  for (const obs::TraceEvent& e : places) {
    EXPECT_EQ(e.kind, obs::EventKind::kInstant);
    // Claim explains carry one candidate per thread slot (the root's thread
    // and each worker), labelled with the slot's machine id; the event
    // value is the candidate count and the detail names the chosen worker.
    EXPECT_EQ(e.value, cfg.threads + 1.0);
    EXPECT_EQ(e.detail.rfind("chosen=", 0), 0u) << e.detail;
    EXPECT_NE(e.detail.find(":bytes="), std::string::npos) << e.detail;
    EXPECT_EQ(e.detail.find("chosen=" + std::to_string(e.machine)), 0u)
        << "claiming worker must be the chosen candidate: " << e.detail;
    int candidates = 0;
    for (std::size_t at = e.detail.find(" m"); at != std::string::npos;
         at = e.detail.find(" m", at + 1)) {
      ++candidates;
      EXPECT_LT(std::stoi(e.detail.substr(at + 2)), rt.machine_count())
          << "no such machine: " << e.detail;
    }
    EXPECT_EQ(candidates, cfg.threads + 1) << e.detail;
  }
}

/// ClusterEngine cannot ship closures; the fanout body is registered at file
/// scope so forked workers know it (cluster_engine_test's idiom).
const int kSeamLeaf = cluster::BodyRegistry::instance().ensure(
    "seam.leaf", [](TaskContext& t, WireReader& r) {
      const auto src = cluster::get_ref<double>(r);
      const auto dst = cluster::get_ref<double>(r);
      double sum = 0;
      for (double v : t.read(src)) sum += v;
      t.write(dst)[0] = sum;
    });

TEST(PlannerSeamEngines, ClusterEngineEmitsStructuredPlacements) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kCluster;
  cfg.cluster_proc.workers = 2;
  cfg.cluster_proc.spares = 0;
  cfg.obs.trace = true;
  Runtime rt(cfg);
  const std::vector<double> init = {1.0, 2.0, 3.0};
  auto src = rt.alloc_init<double>(init, "src");
  std::vector<SharedRef<double>> out;
  for (int i = 0; i < 16; ++i)
    out.push_back(rt.alloc<double>(1, "out" + std::to_string(i)));
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 16; ++i) {
      WireWriter args;
      cluster::put_ref(args, src);
      cluster::put_ref(args, out[static_cast<std::size_t>(i)]);
      cluster::spawn(ctx, kSeamLeaf, std::move(args), [&](AccessDecl& d) {
        d.rd(src);
        d.wr(out[static_cast<std::size_t>(i)]);
      });
    }
  });
  for (const auto& o : out) EXPECT_EQ(rt.get(o)[0], 6.0);
  const auto places = placement_events(rt);
  ASSERT_FALSE(places.empty());
  for (const obs::TraceEvent& e : places) {
    EXPECT_EQ(e.kind, obs::EventKind::kInstant);
    EXPECT_EQ(e.detail.rfind("chosen=", 0), 0u) << e.detail;
    // Task-select explains name the worker and score the ready window.
    EXPECT_NE(e.detail.find(" w" + std::to_string(e.machine)),
              std::string::npos)
        << e.detail;
    EXPECT_NE(e.detail.find(":bytes="), std::string::npos) << e.detail;
  }
}

TEST(PlannerSeamEngines, UnfittedModelPlannerMatchesDefaultByteForByte) {
  // An unfitted ModelPlanner's plan_policy is the identity, so swapping it
  // in must not change a byte of a deterministic SimEngine export.
  auto config = [](std::shared_ptr<const Planner> planner) {
    RuntimeConfig cfg;
    cfg.engine = EngineKind::kSim;
    cfg.cluster = presets::ipsc860(4);
    cfg.obs.trace = true;
    cfg.planner = std::move(planner);
    return cfg;
  };
  auto export_trace = [](Runtime& rt) {
    std::ostringstream os;
    rt.write_chrome_trace(os);
    return os.str();
  };
  std::string with_default, with_model;
  {
    Runtime rt(config(nullptr));
    run_cholesky(rt);
    with_default = export_trace(rt);
  }
  {
    Runtime rt(config(std::make_shared<model::ModelPlanner>(
        model::CostModel{}, model::WorkloadFeatures{})));
    run_cholesky(rt);
    with_model = export_trace(rt);
  }
  EXPECT_FALSE(with_default.empty());
  EXPECT_EQ(with_default, with_model);
}

}  // namespace
}  // namespace jade
