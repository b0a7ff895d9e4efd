// Determinism and equivalence contracts of the trace stream.
//
// 1. Two SimEngine runs of the same program on the same cluster export
//    byte-identical Chrome JSON — also with the fault layer armed and
//    crashing machines, since fault injection is seeded (PR 1).
// 2. The trace-derived task timeline (obs::timeline_from_trace) stays one
//    ordered row per task when fault injection re-dispatches attempts.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "jade/apps/cholesky.hpp"
#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/obs/chrome_trace.hpp"
#include "jade/obs/timeline_view.hpp"

namespace jade {
namespace {

RuntimeConfig sim_config(int machines) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ipsc860(machines);
  cfg.obs.trace = true;
  return cfg;
}

/// A workload that exercises engine, store, and network events: the paper's
/// sparse Cholesky example, which migrates tasks and moves/copies objects.
void run_cholesky(Runtime& rt) {
  const auto a = apps::paper_example_matrix();
  auto jm = apps::upload_matrix(rt, a);
  rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
  (void)apps::download_matrix(rt, jm);
}

std::string export_trace(Runtime& rt) {
  std::ostringstream os;
  rt.write_chrome_trace(os);
  return os.str();
}

TEST(TraceDeterminism, SameRunExportsByteIdenticalJson) {
  std::string first, second;
  {
    Runtime rt(sim_config(4));
    run_cholesky(rt);
    first = export_trace(rt);
  }
  {
    Runtime rt(sim_config(4));
    run_cholesky(rt);
    second = export_trace(rt);
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceDeterminism, ByteIdenticalUnderSeededFaultInjection) {
  auto faulty_config = [] {
    RuntimeConfig cfg = sim_config(4);
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xdecaf;
    // Explicit crash mid-factorization (the fault-free run takes ~3.3 ms of
    // virtual time), plus message loss: recovery and retransmission both
    // land in the trace, and both must replay identically.
    cfg.fault.crashes = {{1, 1e-3}};
    cfg.fault.drop_probability = 0.05;
    return cfg;
  };
  std::string first, second;
  {
    Runtime rt(faulty_config());
    run_cholesky(rt);
    first = export_trace(rt);
  }
  {
    Runtime rt(faulty_config());
    run_cholesky(rt);
    second = export_trace(rt);
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The fault layer actually fired: its events are in the export.
  EXPECT_NE(first.find("\"cat\":\"ft\""), std::string::npos);
}

// --- Speculation (SchedPolicy::spec) must preserve the contract ------------

RuntimeConfig spec_config(int machines) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  auto cluster = presets::ideal(machines);
  cluster.task_dispatch_overhead = 0;
  cluster.task_create_overhead = 0;
  cfg.cluster = std::move(cluster);
  cfg.sched.spec.enabled = true;
  // Round 0 aborts one bet per solver against ctrl; keep the conflict
  // history below the throttle so later rounds still speculate and commit.
  cfg.sched.spec.conflict_limit = 16;
  cfg.obs.trace = true;
  return cfg;
}

/// Pipeline with conservative rd_wr stages; round 0's write materializes
/// from a non-speculative runner (the first task always dispatches
/// normally), so the run exercises both spec.commit and spec.abort.
std::string run_spec_pipeline(RuntimeConfig cfg,
                              RuntimeStats* stats = nullptr) {
  Runtime rt(std::move(cfg));
  auto ctrl = rt.alloc<int>(1);
  std::vector<SharedRef<int>> outs;
  for (int i = 0; i < 4; ++i) outs.push_back(rt.alloc<int>(1));
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < 3; ++r) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                   [ctrl, r](TaskContext& t) {
                     t.charge(1e7);
                     if (r == 0) t.read_write(ctrl)[0] = 9;
                   });
      for (auto out : outs) {
        ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                     [ctrl, out](TaskContext& t) {
                       t.charge(1e6);
                       t.write(out)[0] = t.read(ctrl)[0] + 1;
                     });
      }
    }
  });
  if (stats != nullptr) *stats = rt.stats();
  return export_trace(rt);
}

TEST(TraceDeterminism, ByteIdenticalWithSpeculationEnabled) {
  RuntimeStats stats;
  const std::string first = run_spec_pipeline(spec_config(6), &stats);
  const std::string second = run_spec_pipeline(spec_config(6));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The run genuinely speculated, and both outcomes are in the export.
  EXPECT_GT(stats.spec_committed, 0u);
  EXPECT_GT(stats.spec_aborted, 0u);
  EXPECT_NE(first.find("spec.commit"), std::string::npos);
  EXPECT_NE(first.find("spec.abort"), std::string::npos);
  // With the policy off, the identical program leaves no spec events behind
  // (the trace stays byte-compatible with pre-speculation builds).
  RuntimeConfig off = spec_config(6);
  off.sched.spec = SpecConfig{};
  EXPECT_EQ(run_spec_pipeline(std::move(off)).find("spec."),
            std::string::npos);
}

TEST(TraceDeterminism, ByteIdenticalWithFaultsDuringSpeculation) {
  // A machine crashes mid-pipeline while speculations are in flight; the
  // dark machine's bets are force-aborted, survivors re-run — and the whole
  // story must still replay byte-identically from the same seed.
  auto config = [] {
    RuntimeConfig cfg = spec_config(6);
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xabad1dea;
    cfg.fault.crashes = {{1, 1.5}};
    return cfg;
  };
  RuntimeStats stats;
  const std::string first = run_spec_pipeline(config(), &stats);
  const std::string second = run_spec_pipeline(config());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_GT(stats.spec_started, 0u);
  EXPECT_NE(first.find("\"cat\":\"ft\""), std::string::npos);
}

TEST(TraceDeterminism, ByteIdenticalWithCommProtocolOptimizationsAndFaults) {
  // The reworked data-movement path (request combining, replica reuse,
  // coalesced invalidation, conversion caching, deferred prefetch — all on
  // by default) must preserve the determinism contract: same seed, same
  // byte-identical export, with the fault layer crashing a machine and
  // dropping messages on a mixed-endian cluster.
  auto config = [] {
    RuntimeConfig cfg = sim_config(6);
    cfg.cluster = presets::hetero_workstations(6);
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xfeedbee;
    cfg.fault.crashes = {{1, 1e-3}};
    cfg.fault.drop_probability = 0.04;
    return cfg;
  };
  std::string first, second;
  apps::SparseMatrix result_first, result_second;
  {
    Runtime rt(config());
    const auto a = apps::paper_example_matrix();
    auto jm = apps::upload_matrix(rt, a);
    rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
    result_first = apps::download_matrix(rt, jm);
    first = export_trace(rt);
  }
  {
    Runtime rt(config());
    const auto a = apps::paper_example_matrix();
    auto jm = apps::upload_matrix(rt, a);
    rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
    result_second = apps::download_matrix(rt, jm);
    second = export_trace(rt);
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(result_first.cols, result_second.cols);
}

TEST(TraceDeterminism, LegacyProtocolMatchesOptimizedResults) {
  // Turning SchedPolicy::optimized_comm off runs the legacy per-object
  // protocol; the factored matrix must be bit-identical either way (only
  // the simulated communication cost may differ), and each configuration
  // must stay internally deterministic.
  auto config = [](bool optimized) {
    RuntimeConfig cfg = sim_config(6);
    cfg.cluster = presets::hetero_workstations(6);
    cfg.sched.optimized_comm = optimized;
    return cfg;
  };
  auto run_once = [](RuntimeConfig cfg, apps::SparseMatrix* out) {
    Runtime rt(std::move(cfg));
    const auto a = apps::paper_example_matrix();
    auto jm = apps::upload_matrix(rt, a);
    rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
    *out = apps::download_matrix(rt, jm);
    return export_trace(rt);
  };
  apps::SparseMatrix legacy, optimized, optimized2;
  const std::string legacy_trace = run_once(config(false), &legacy);
  const std::string opt_trace = run_once(config(true), &optimized);
  const std::string opt_trace2 = run_once(config(true), &optimized2);
  EXPECT_EQ(legacy.cols, optimized.cols);
  EXPECT_EQ(opt_trace, opt_trace2);
  // The protocols genuinely differ on the wire, so the traces must too.
  EXPECT_NE(legacy_trace, opt_trace);
}

TEST(TraceDeterminism, StreamCoversEngineNetAndStore) {
  Runtime rt(sim_config(4));
  run_cholesky(rt);
  const std::string json = export_trace(rt);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"store\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"sched\""), std::string::npos);
}

TEST(TimelineFromTrace, OneOrderedRowPerTaskUnderFaultRedispatch) {
  // A crash kills attempts that are dispatched again later; the derived
  // view keeps one row per task (its last attempt), phases in order.
  RuntimeConfig cfg = sim_config(4);
  cfg.fault.enabled = true;
  cfg.fault.seed = 0xbead;
  cfg.fault.crashes = {{2, 1e-3}};
  Runtime rt(std::move(cfg));
  run_cholesky(rt);
  ASSERT_GT(rt.stats().tasks_requeued, 0u);

  const std::vector<TaskTimeline> rows =
      obs::timeline_from_trace(rt.trace_events());
  ASSERT_EQ(rows.size(), rt.stats().tasks_created + 1);  // plus the root
  std::set<std::uint64_t> ids;
  for (const TaskTimeline& t : rows) {
    SCOPED_TRACE("task " + std::to_string(t.task_id));
    EXPECT_TRUE(ids.insert(t.task_id).second);
    EXPECT_LE(t.created, t.dispatched);
    EXPECT_LE(t.dispatched, t.body_start);
    EXPECT_LE(t.body_start, t.completed);
  }
}

}  // namespace
}  // namespace jade
