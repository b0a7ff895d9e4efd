// CostModel validation + ModelPlanner auto-tuning (docs/MODEL.md).
//
// Part 1 — prediction error.  Every scenario below is profiled once
// (model::profile_workload: four cheap canonical SimEngine runs) and then
// really executed on its *target* platform under four policy variants
// (contexts=1, contexts=4, locality off, speculation on).  One global
// CostModel is fitted across all scenarios' variant runs; the default
// policy's run on each target is *held out* of the fit and predicted.  The
// reported figure is the absolute relative error of those held-out
// predictions; the bench exits non-zero when the median exceeds 15%.
//
// Part 2 — auto-tuning.  Per scenario a ModelPlanner (the fitted model +
// that scenario's features) is handed to the Runtime as
// RuntimeConfig::planner; plan_policy searches the candidate grid and the
// run executes whatever policy it returns.  The tuned run must match or
// beat the hand-set default on every scenario (it deviates only when the
// model predicts a >10% win), and must actually win >=10% on at least two.
// Every run — training, validation, tuned — is verified bit-exactly against
// the serial reference engine.
//
// Everything is SimEngine virtual time: deterministic, machine-independent,
// honest about scaling on a 1-core CI container.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_format.hpp"
#include "jade/apps/cholesky.hpp"
#include "jade/apps/jmake.hpp"
#include "jade/apps/relax.hpp"
#include "jade/apps/spd_matrix.hpp"
#include "jade/apps/water.hpp"
#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/model/cost_model.hpp"
#include "jade/model/model_planner.hpp"
#include "jade/model/profiler.hpp"
#include "jade/support/stats.hpp"

namespace {

using namespace jade;

/// A workload returns its observable results; every engine and policy must
/// reproduce them bit-exactly.
using Workload = std::function<std::vector<std::int64_t>(Runtime&)>;

std::int64_t bits(double v) {
  std::int64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

// --- workloads --------------------------------------------------------------

Workload cholesky_workload(int n, int block, std::uint64_t seed) {
  return [n, block, seed](Runtime& rt) {
    const apps::SparseMatrix a = apps::make_spd(n, 5.0 / n, seed);
    apps::JadeBlockedSparse jm = apps::upload_blocked(rt, a, block);
    rt.run([&](TaskContext& ctx) { apps::factor_jade_blocked(ctx, jm); });
    const apps::SparseMatrix f = apps::download_blocked(rt, jm);
    double sum = 0;
    for (const auto& col : f.cols)
      for (double v : col) sum += v;
    return std::vector<std::int64_t>{bits(sum)};
  };
}

Workload relax_workload(apps::RelaxConfig rc) {
  return [rc](Runtime& rt) {
    const apps::RelaxState init = apps::make_relax(rc);
    apps::JadeRelax w = apps::upload_relax(rt, rc, init);
    rt.run([&](TaskContext& ctx) { apps::relax_run_jade(ctx, w); });
    return std::vector<std::int64_t>{
        bits(apps::relax_checksum(apps::download_relax(rt, w)))};
  };
}

Workload water_workload(apps::WaterConfig wc) {
  return [wc](Runtime& rt) {
    const apps::WaterState init = apps::make_water(wc);
    apps::JadeWater w = apps::upload_water(rt, wc, init);
    rt.run([&](TaskContext& ctx) { apps::water_run_jade(ctx, w); });
    return std::vector<std::int64_t>{
        bits(apps::water_checksum(apps::download_water(rt, w)))};
  };
}

/// The Section 4.2 pipeline shape (bench_speculation's home-turf win): a
/// conservative rd_wr control stage per round, then a solver fan-out.
Workload pipeline_workload(int rounds, int solvers) {
  return [rounds, solvers](Runtime& rt) {
    auto ctrl = rt.alloc<int>(1);
    std::vector<std::vector<SharedRef<int>>> outs(
        static_cast<std::size_t>(rounds));
    for (auto& round : outs)
      for (int i = 0; i < solvers; ++i) round.push_back(rt.alloc<int>(1));
    rt.run([&](TaskContext& ctx) {
      for (int r = 0; r < rounds; ++r) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                     [](TaskContext& t) { t.charge(1e7); });
        for (auto out : outs[static_cast<std::size_t>(r)]) {
          ctx.withonly([&](AccessDecl& d) {
            d.rd(ctrl);
            d.wr(out);
          },
                       [ctrl, out, r](TaskContext& t) {
                         t.charge(2e6);
                         t.write(out)[0] = t.read(ctrl)[0] + r + 1;
                       });
        }
      }
    });
    std::vector<std::int64_t> check;
    for (auto& round : outs)
      for (auto out : round) check.push_back(rt.get(out)[0]);
    return check;
  };
}

/// Parallel make over an already-built chain: every command is a no-op but
/// the conservative rd_wr(target) declarations serialize the chain.
Workload make_chain_workload(int length) {
  apps::Makefile mf = apps::chain_makefile(length);
  apps::mark_built(mf);
  return [mf](Runtime& rt) {
    apps::JadeMake jm = apps::upload_make(rt, mf);
    rt.run([&](TaskContext& ctx) { apps::make_jade_conservative(ctx, jm); });
    const apps::BuildResult out = apps::download_make(rt, jm);
    std::vector<std::int64_t> check = out.mtime;
    for (std::uint64_t h : out.hash)
      check.push_back(static_cast<std::int64_t>(h));
    return check;
  };
}

/// A root-driven flood of independent tasks (pure load balancing).
Workload fanout_workload(int tasks, double grain) {
  return [tasks, grain](Runtime& rt) {
    std::vector<SharedRef<double>> outs;
    for (int i = 0; i < tasks; ++i) outs.push_back(rt.alloc<double>(64));
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < tasks; ++i) {
        auto out = outs[static_cast<std::size_t>(i)];
        ctx.withonly([&](AccessDecl& d) { d.wr(out); },
                     [out, i, grain](TaskContext& t) {
                       t.charge(grain);
                       t.write(out)[0] = 1.5 * i;
                     });
      }
    });
    double sum = 0;
    for (auto out : outs) sum += rt.get(out)[0];
    return std::vector<std::int64_t>{bits(sum)};
  };
}

/// A pure dependence chain (critical-path bound; parallelism 1).
Workload chain_workload(int length, double grain) {
  return [length, grain](Runtime& rt) {
    auto acc = rt.alloc<double>(8);
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < length; ++i)
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(acc); },
                     [acc, grain](TaskContext& t) {
                       t.charge(grain);
                       t.read_write(acc)[0] += 1.0;
                     });
    });
    return std::vector<std::int64_t>{bits(rt.get(acc)[0])};
  };
}

// --- harness ----------------------------------------------------------------

ClusterConfig ideal_fast(int machines) {
  ClusterConfig c = presets::ideal(machines);
  c.task_dispatch_overhead = 0;
  c.task_create_overhead = 0;
  return c;
}

struct Scenario {
  std::string name;
  std::string topology;
  ClusterConfig target;
  Workload workload;
};

std::vector<std::int64_t> serial_reference(const Workload& w) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSerial;
  Runtime rt(std::move(cfg));
  return w(rt);
}

/// One SimEngine run on (cluster, policy [, planner]); verifies the result
/// and returns virtual seconds.
double run_sim(const Scenario& sc, const SchedPolicy& policy,
               const std::vector<std::int64_t>& expect,
               std::shared_ptr<const Planner> planner = nullptr) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = sc.target;
  cfg.sched = policy;
  cfg.planner = std::move(planner);
  Runtime rt(std::move(cfg));
  if (sc.workload(rt) != expect) {
    std::cerr << sc.name << ": verification failed against the serial "
              << "reference\n";
    std::exit(1);
  }
  return rt.sim_duration();
}

std::string policy_string(const SchedPolicy& p) {
  return "ctx=" + std::to_string(p.contexts_per_machine) +
         (p.locality ? ",loc" : ",noloc") + (p.spec.enabled ? ",spec" : "");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  apps::RelaxConfig relax_small;
  relax_small.rows = 64;
  relax_small.cols = 64;
  relax_small.strips = 8;
  relax_small.iterations = 8;

  apps::WaterConfig water_small;
  water_small.molecules = 343;
  water_small.groups = 12;
  water_small.timesteps = 2;

  const std::vector<Scenario> scenarios = {
      {"cholesky", "sharedbus", presets::mica(8),
       cholesky_workload(120, 6, 7)},
      {"cholesky_big", "hypercube", presets::ipsc860(8),
       cholesky_workload(160, 8, 11)},
      {"relax", "mesh", presets::mesh(8), relax_workload(relax_small)},
      {"relax_hetero", "crossbar", presets::hrv(7),
       relax_workload(relax_small)},
      {"water_lws", "hypercube", presets::ipsc860(8),
       water_workload(water_small)},
      {"water_bus", "sharedbus", presets::mica(8),
       water_workload(water_small)},
      {"fanout_flood", "sharedbus", presets::mica(8),
       fanout_workload(64, 5e5)},
      {"serial_chain", "mesh", presets::mesh(8), chain_workload(32, 1e6)},
      {"pipeline_backsubst", "ideal", ideal_fast(8), pipeline_workload(4, 6)},
      {"make_noop_chain", "ideal", ideal_fast(8), make_chain_workload(24)},
  };

  // The four training variants around the default policy; the default
  // itself is held out and predicted.
  const SchedPolicy kDefault;
  std::vector<SchedPolicy> variants;
  {
    SchedPolicy p;
    p.contexts_per_machine = 1;
    variants.push_back(p);
    p = kDefault;
    p.contexts_per_machine = 4;
    variants.push_back(p);
    p = kDefault;
    p.locality = false;
    variants.push_back(p);
    p = kDefault;
    p.spec.enabled = true;
    variants.push_back(p);
  }

  std::cout << "=== cost-model validation: " << scenarios.size()
            << " scenarios, " << variants.size()
            << " training variants each (virtual time) ===\n";

  std::vector<std::vector<std::int64_t>> expects;
  std::vector<model::WorkloadFeatures> features;
  std::vector<double> actual_default;
  std::vector<model::Observation> training;
  for (const Scenario& sc : scenarios) {
    expects.push_back(serial_reference(sc.workload));
    model::ProfileOptions popts;
    popts.machines = sc.target.machine_count();
    features.push_back(model::profile_workload(
        [&](Runtime& rt) { (void)sc.workload(rt); }, popts));
    for (const SchedPolicy& p : variants)
      training.push_back({features.back(), sc.target, p,
                          run_sim(sc, p, expects.back())});
    actual_default.push_back(run_sim(sc, kDefault, expects.back()));
  }

  model::CostModel cost;
  cost.fit(training);
  std::cout << "fitted coefficients:";
  for (double c : cost.coefficients()) std::cout << " " << c;
  std::cout << " (" << training.size() << " observations)\n";

  jade::bench::JsonReport report("bench_model");
  TextTable table({"scenario", "topology", "predicted", "actual", "err"});
  std::vector<double> errors;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const double predicted =
        cost.predict(features[s], scenarios[s].target, kDefault);
    const double err =
        std::fabs(predicted - actual_default[s]) / actual_default[s];
    errors.push_back(err);
    report.add_row()
        .str("kind", "validation")
        .str("scenario", scenarios[s].name)
        .str("topology", scenarios[s].topology)
        .count("machines", scenarios[s].target.machine_count())
        .num("predicted_seconds", predicted)
        .num("actual_seconds", actual_default[s])
        .num("abs_rel_error", err, 4);
    table.add_row({scenarios[s].name, scenarios[s].topology,
                   format_double(predicted, 4),
                   format_double(actual_default[s], 4),
                   format_double(100 * err, 1) + "%"});
  }
  const double med = median(errors);
  table.print(std::cout);
  std::cout << "median absolute relative error: " << format_double(100 * med, 2)
            << "% over " << errors.size() << " held-out predictions\n\n";

  bool ok = true;
  if (med > 0.15) {
    std::cerr << "FAIL: median prediction error " << med << " > 0.15\n";
    ok = false;
  }

  // --- part 2: the auto-tuner ----------------------------------------------
  std::cout << "=== model-driven policy auto-tuning (ModelPlanner) ===\n";
  TextTable tuner({"scenario", "policy", "default", "auto", "speedup"});
  int wins = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    auto planner = std::make_shared<model::ModelPlanner>(cost, features[s]);
    const SchedPolicy chosen =
        planner->plan_policy(scenarios[s].target, kDefault);
    const double auto_seconds =
        run_sim(scenarios[s], kDefault, expects[s], planner);
    const double speedup = actual_default[s] / auto_seconds;
    const bool deviated =
        chosen.contexts_per_machine != kDefault.contexts_per_machine ||
        chosen.locality != kDefault.locality ||
        chosen.spec.enabled != kDefault.spec.enabled;
    if (speedup >= 1.10) ++wins;
    if (auto_seconds > actual_default[s] * 1.0001) {
      std::cerr << "FAIL: " << scenarios[s].name
                << ": tuned policy lost to the default ("
                << auto_seconds << " > " << actual_default[s] << ")\n";
      ok = false;
    }
    report.add_row()
        .str("kind", "tuner")
        .str("scenario", scenarios[s].name)
        .str("topology", scenarios[s].topology)
        .str("policy", policy_string(chosen))
        .boolean("deviated", deviated)
        .num("default_seconds", actual_default[s])
        .num("auto_seconds", auto_seconds)
        .num("speedup", speedup, 3)
        .boolean("verified", true);
    tuner.add_row({scenarios[s].name, policy_string(chosen),
                   format_double(actual_default[s], 4),
                   format_double(auto_seconds, 4),
                   format_double(speedup, 3)});
  }
  tuner.print(std::cout);
  if (wins < 2) {
    std::cerr << "FAIL: tuner won >=10% on only " << wins
              << " scenarios (need >= 2)\n";
    ok = false;
  }
  std::cout << "tuner wins >= 10%: " << wins
            << " (every run serial-verified)\n";

  {
    auto& row = report.add_row().str("kind", "fit");
    std::span<const double> coef = cost.coefficients();
    for (std::size_t i = 0; i < coef.size(); ++i)
      row.num("c" + std::to_string(i), coef[i], 6);
    row.count("observations", static_cast<std::uint64_t>(training.size()))
        .num("median_abs_rel_error", med, 4)
        .count("tuner_wins", wins);
  }
  if (!ok) return 1;
  report.write(jade::bench::json_out_path(argc, argv, "BENCH_model.json"));
  return 0;
}
