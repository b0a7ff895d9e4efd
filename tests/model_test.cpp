// The model layer: CostModel fitting (deterministic, bit-identical),
// TraceReader extraction and Chrome-trace round-tripping, the profiler's
// feature measurement, and ModelPlanner's policy search.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/model/cost_model.hpp"
#include "jade/model/model_planner.hpp"
#include "jade/model/profiler.hpp"
#include "jade/model/trace_reader.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

using model::CostModel;
using model::Observation;
using model::WorkloadFeatures;

/// Bit pattern of a double — coefficient reproducibility means *bits*, not
/// approximate equality.
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

WorkloadFeatures synthetic_features() {
  WorkloadFeatures f;
  f.valid = true;
  f.tasks = 120;
  f.total_work = 1.2e8;
  f.mean_grain = 1e6;
  f.max_grain = 4e6;
  f.fanout = 2;
  f.root_fanout = 16;
  f.critical_path_work = 2.4e7;
  f.avg_parallelism = 5;
  f.payload_bytes = 2e6;
  f.messages = 800;
  f.declared_bytes = 3e6;
  f.payload_bytes_nolocal = 8e6;
  f.messages_nolocal = 3200;
  f.max_queue_depth = 24;
  f.spec_speedup = 1.0;
  return f;
}

/// Observations generated *from the basis itself* with known coefficients:
/// the fit must recover them (the system is exactly determined up to the
/// tiny ridge term).
std::vector<Observation> synthetic_observations() {
  const std::array<double, CostModel::kTerms> truth = {1.05, 0.9, 0.2, 0.01};
  std::vector<Observation> obs;
  const WorkloadFeatures f = synthetic_features();
  for (const auto& cluster :
       {presets::mica(8), presets::ipsc860(8), presets::ideal(4),
        presets::hrv(7)}) {
    for (int contexts : {1, 2, 4}) {
      for (bool locality : {true, false}) {
        Observation o;
        o.features = f;
        o.cluster = cluster;
        o.policy.contexts_per_machine = contexts;
        o.policy.locality = locality;
        const auto b = CostModel::basis(f, o.cluster, o.policy);
        o.actual_seconds = 0;
        for (std::size_t t = 0; t < CostModel::kTerms; ++t)
          o.actual_seconds += truth[t] * b[t];
        obs.push_back(std::move(o));
      }
    }
  }
  return obs;
}

TEST(CostModelFit, RefitIsBitIdentical) {
  const auto obs = synthetic_observations();
  CostModel a, b;
  a.fit(obs);
  b.fit(obs);
  ASSERT_TRUE(a.fitted());
  ASSERT_EQ(a.coefficients().size(), CostModel::kTerms);
  for (std::size_t t = 0; t < CostModel::kTerms; ++t)
    EXPECT_EQ(bits(a.coefficients()[t]), bits(b.coefficients()[t]))
        << "coefficient " << t << " differs between identical fits";
}

TEST(CostModelFit, RecoversGeneratingCoefficients) {
  // The observations were synthesized as truth · basis, so predictions must
  // land on the actuals (ridge 1e-9 perturbs far below this tolerance).
  const auto obs = synthetic_observations();
  CostModel m;
  m.fit(obs);
  for (const Observation& o : obs) {
    const double pred = m.predict(o.features, o.cluster, o.policy);
    EXPECT_NEAR(pred, o.actual_seconds, 1e-6 * o.actual_seconds);
  }
}

TEST(CostModelFit, FewerObservationsThanTermsThrows) {
  auto obs = synthetic_observations();
  obs.resize(3);
  CostModel m;
  EXPECT_THROW(m.fit(obs), ConfigError);
}

TEST(CostModelFit, NonPositiveObservationsAreIgnored) {
  // 4 observations, one of them degenerate: only 3 usable -> under-determined.
  auto obs = synthetic_observations();
  obs.resize(4);
  obs[1].actual_seconds = 0;
  CostModel m;
  EXPECT_THROW(m.fit(obs), ConfigError);
}

TEST(CostModel, PredictBeforeFitThrows) {
  CostModel m;
  EXPECT_FALSE(m.fitted());
  EXPECT_THROW(
      m.predict(synthetic_features(), presets::mica(8), SchedPolicy{}),
      ConfigError);
}

TEST(CostModel, CommSecondsScalesWithDemandAndTopology) {
  const double bytes = 1e7, msgs = 1e4;
  const double bus = CostModel::comm_seconds(presets::mica(8), bytes, msgs);
  const double cube =
      CostModel::comm_seconds(presets::ipsc860(8), bytes, msgs);
  const double xbar = CostModel::comm_seconds(presets::hrv(8), bytes, msgs);
  EXPECT_GT(bus, 0);
  EXPECT_GT(cube, 0);
  EXPECT_GT(xbar, 0);
  // A shared bus serializes every transfer; the crossbar spreads them.
  EXPECT_GT(bus, xbar);
  // More data on the same fabric costs more.
  EXPECT_GT(CostModel::comm_seconds(presets::mica(8), 2 * bytes, msgs), bus);
  // Zero demand is free.
  EXPECT_EQ(CostModel::comm_seconds(presets::mica(8), 0, 0), 0);
}

// --- TraceReader -----------------------------------------------------------

/// A root that spawns `tasks` independent single-write tasks, each charging
/// `work` ops — the simplest graph with known shape features.
void run_flood(Runtime& rt, int tasks, double work) {
  std::vector<SharedRef<double>> out;
  out.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i)
    out.push_back(rt.alloc<double>(4, "o" + std::to_string(i)));
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < tasks; ++i) {
      auto o = out[static_cast<std::size_t>(i)];
      ctx.withonly([&](AccessDecl& d) { d.wr(o); },
                   [o, work](TaskContext& t) {
                     t.charge(work);
                     t.write(o)[0] = 1.0;
                   });
    }
  });
}

/// A strict dependence chain: every task read-writes the same object.
void run_chain(Runtime& rt, int length, double work) {
  auto o = rt.alloc<double>(4, "chain");
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < length; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(o); },
                   [o, work](TaskContext& t) {
                     t.charge(work);
                     t.write(o)[0] += 1.0;
                   });
    }
  });
}

RuntimeConfig traced_sim(int machines) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ideal(machines);
  cfg.obs.trace = true;
  return cfg;
}

TEST(TraceReader, ExtractsKnownGraphShape) {
  Runtime rt(traced_sim(4));
  run_flood(rt, 5, 1e6);
  const auto profile = model::extract_profile(rt.trace_events(), rt.stats());
  EXPECT_EQ(profile.tasks, 5);
  EXPECT_EQ(profile.root_fanout, 5);
  EXPECT_EQ(profile.fanout, 0);  // no non-root task spawned children
  EXPECT_DOUBLE_EQ(profile.total_work, rt.stats().total_charged_work);
  EXPECT_NEAR(profile.mean_grain, 1e6, 1);
  EXPECT_GE(profile.max_queue_depth, 1);
  EXPECT_DOUBLE_EQ(profile.finish_time, rt.sim_duration());
}

TEST(TraceReader, ChromeRoundTripPreservesProfile) {
  Runtime rt(traced_sim(4));
  run_flood(rt, 8, 2e6);
  const auto direct = model::extract_profile(rt.trace_events(), rt.stats());

  std::ostringstream exported;
  rt.write_chrome_trace(exported);
  std::istringstream in(exported.str());
  const auto reparsed = model::read_chrome_trace(in);
  const auto roundtrip = model::extract_profile(reparsed, rt.stats());

  EXPECT_DOUBLE_EQ(roundtrip.tasks, direct.tasks);
  EXPECT_DOUBLE_EQ(roundtrip.total_work, direct.total_work);
  EXPECT_DOUBLE_EQ(roundtrip.mean_grain, direct.mean_grain);
  EXPECT_DOUBLE_EQ(roundtrip.max_grain, direct.max_grain);
  EXPECT_DOUBLE_EQ(roundtrip.fanout, direct.fanout);
  EXPECT_DOUBLE_EQ(roundtrip.root_fanout, direct.root_fanout);
  EXPECT_DOUBLE_EQ(roundtrip.max_queue_depth, direct.max_queue_depth);
  EXPECT_DOUBLE_EQ(roundtrip.payload_bytes, direct.payload_bytes);
  EXPECT_DOUBLE_EQ(roundtrip.messages, direct.messages);
  EXPECT_DOUBLE_EQ(roundtrip.finish_time, direct.finish_time);
}

TEST(TraceReader, MalformedJsonThrows) {
  std::istringstream in("{\"traceEvents\": [ {\"ph\": ");
  EXPECT_THROW(model::read_chrome_trace(in), ProtocolError);
}

std::vector<obs::TraceEvent> read_trace(const std::string& text) {
  std::istringstream in(text);
  return model::read_chrome_trace(in);
}

TEST(TraceReader, DeepNestingThrows) {
  EXPECT_THROW(read_trace(std::string(100000, '[')), ProtocolError);
  EXPECT_THROW(read_trace("{\"traceEvents\":" + std::string(100000, '[')),
               ProtocolError);
}

TEST(TraceReader, OutOfRangeIntegersThrow) {
  auto trace = [](const std::string& tid, const std::string& id) {
    return "{\"traceEvents\":[{\"ph\":\"i\",\"cat\":\"engine\",\"name\":"
           "\"x\",\"pid\":1,\"tid\":" +
           tid + ",\"ts\":0,\"args\":{\"id\":" + id + "}}]}";
  };
  const auto events = read_trace(trace("3", "7"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].machine, 2);
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_THROW(read_trace(trace("1e300", "7")), ProtocolError);
  EXPECT_THROW(read_trace(trace("-2147483648", "7")), ProtocolError);
  EXPECT_THROW(read_trace(trace("3", "1e300")), ProtocolError);
  EXPECT_THROW(read_trace(trace("3", "-1")), ProtocolError);
}

// --- Profiler --------------------------------------------------------------

TEST(Profiler, ChainHasUnitParallelism) {
  model::ProfileOptions opts;
  opts.machines = 4;
  opts.probe_speculation = false;
  const auto f = model::profile_workload(
      [](Runtime& rt) { run_chain(rt, 8, 2e6); }, opts);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.tasks, 8);
  EXPECT_NEAR(f.total_work, 1.6e7, 1);
  // A chain's critical path is all of its work.
  EXPECT_NEAR(f.critical_path_work, f.total_work, 0.05 * f.total_work);
  EXPECT_NEAR(f.avg_parallelism, 1.0, 0.1);
  EXPECT_EQ(f.spec_speedup, 0.0);  // no spec probe taken
}

TEST(Profiler, FloodParallelismMatchesWidth) {
  model::ProfileOptions opts;
  opts.machines = 4;
  opts.probe_speculation = true;
  const auto f = model::profile_workload(
      [](Runtime& rt) { run_flood(rt, 16, 2e6); }, opts);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.tasks, 16);
  EXPECT_EQ(f.root_fanout, 16);
  // 16 independent equal tasks: the critical path is one task's work.
  EXPECT_NEAR(f.avg_parallelism, 16.0, 2.0);
  // Locality-off demand is measured (the probe ran) and never cheaper.
  EXPECT_GE(f.payload_bytes_nolocal, f.payload_bytes);
  // Independent tasks give speculation nothing to do.
  EXPECT_DOUBLE_EQ(f.spec_speedup, 1.0);
}

TEST(Profiler, ReprofilingIsDeterministic) {
  model::ProfileOptions opts;
  opts.machines = 4;
  const auto workload = [](Runtime& rt) { run_flood(rt, 6, 1e6); };
  const auto a = model::profile_workload(workload, opts);
  const auto b = model::profile_workload(workload, opts);
  EXPECT_EQ(bits(a.tasks), bits(b.tasks));
  EXPECT_EQ(bits(a.total_work), bits(b.total_work));
  EXPECT_EQ(bits(a.critical_path_work), bits(b.critical_path_work));
  EXPECT_EQ(bits(a.avg_parallelism), bits(b.avg_parallelism));
  EXPECT_EQ(bits(a.payload_bytes), bits(b.payload_bytes));
  EXPECT_EQ(bits(a.messages), bits(b.messages));
  EXPECT_EQ(bits(a.payload_bytes_nolocal), bits(b.payload_bytes_nolocal));
  EXPECT_EQ(bits(a.max_queue_depth), bits(b.max_queue_depth));
  EXPECT_EQ(bits(a.spec_speedup), bits(b.spec_speedup));
}

// --- ModelPlanner ----------------------------------------------------------

bool same_policy(const SchedPolicy& a, const SchedPolicy& b) {
  return a.contexts_per_machine == b.contexts_per_machine &&
         a.locality == b.locality && a.spec.enabled == b.spec.enabled;
}

TEST(ModelPlanner, CandidateGridStartsAtBaseWithoutDuplicates) {
  SchedPolicy base;  // ctx=2, locality on, spec off — inside the grid
  const auto cands = model::ModelPlanner::candidate_policies(base);
  ASSERT_FALSE(cands.empty());
  EXPECT_TRUE(same_policy(cands[0], base));
  // 3 context levels x 2 locality x 2 spec = 12 cells; the base occupies
  // one of them, listed once (as candidate 0).
  EXPECT_EQ(cands.size(), 12u);
  for (std::size_t i = 0; i < cands.size(); ++i)
    for (std::size_t j = i + 1; j < cands.size(); ++j)
      EXPECT_FALSE(same_policy(cands[i], cands[j]))
          << "candidates " << i << " and " << j << " coincide";
}

TEST(ModelPlanner, UnfittedModelIsIdentity) {
  model::ModelPlanner planner{CostModel{}, synthetic_features()};
  SchedPolicy base;
  base.contexts_per_machine = 1;
  base.locality = false;
  const SchedPolicy planned = planner.plan_policy(presets::mica(8), base);
  EXPECT_TRUE(same_policy(planned, base));
}

TEST(ModelPlanner, InvalidFeaturesAreIdentity) {
  CostModel m;
  m.fit(synthetic_observations());
  model::ModelPlanner planner{std::move(m), WorkloadFeatures{}};
  SchedPolicy base;
  const SchedPolicy planned = planner.plan_policy(presets::mica(8), base);
  EXPECT_TRUE(same_policy(planned, base));
}

TEST(ModelPlanner, EnablesSpeculationWhenProfiledSpeedupDominates) {
  // A workload whose profile says speculation halves the critical path:
  // every spec-on candidate predicts ~half the base time, far past the 10%
  // margin, so the tuner must deviate and must deviate *toward* spec.
  WorkloadFeatures f = synthetic_features();
  f.critical_path_work = 1.0e8;  // chain-dominated
  f.total_work = 1.1e8;
  f.avg_parallelism = 1.1;
  f.payload_bytes = 0;  // keep comm out of the comparison
  f.messages = 0;
  f.payload_bytes_nolocal = 0;
  f.messages_nolocal = 0;
  f.spec_speedup = 2.0;

  // Fit from basis-synthesized observations over this feature vector so the
  // predictions reproduce the basis exactly.
  std::vector<Observation> obs;
  for (const auto& cluster : {presets::mica(8), presets::ipsc860(8)}) {
    for (int contexts : {1, 2}) {
      for (bool spec : {false, true}) {
        Observation o;
        o.features = f;
        o.cluster = cluster;
        o.policy.contexts_per_machine = contexts;
        o.policy.spec.enabled = spec;
        const auto b = CostModel::basis(f, o.cluster, o.policy);
        o.actual_seconds = b[0] + 0.9 * b[1] + 0.2 * b[2];
        obs.push_back(std::move(o));
      }
    }
  }
  CostModel m;
  m.fit(obs);
  model::ModelPlanner planner{std::move(m), f};

  SchedPolicy base;  // spec off
  const SchedPolicy planned = planner.plan_policy(presets::mica(8), base);
  EXPECT_TRUE(planned.spec.enabled);
  EXPECT_LT(planner.predict(presets::mica(8), planned),
            0.9 * planner.predict(presets::mica(8), base));
}

TEST(ModelPlanner, RespectsSafetyMargin) {
  // spec_speedup = 1: every candidate's basis differs from the base only in
  // the overlap weighting; nothing clears the 10% margin, so the hand-set
  // base must pass through untouched.
  WorkloadFeatures f = synthetic_features();
  f.spec_speedup = 1.0;
  CostModel m;
  m.fit(synthetic_observations());
  model::ModelPlanner planner{std::move(m), f};
  SchedPolicy base;
  const SchedPolicy planned = planner.plan_policy(presets::ipsc860(8), base);
  EXPECT_TRUE(same_policy(planned, base));
}

}  // namespace
}  // namespace jade
