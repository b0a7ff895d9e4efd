// Speculative task execution (SchedPolicy::spec): pending tasks whose only
// unresolved blockers are conservative, not-yet-exercised write declarations
// run ahead against snapshot-isolated buffers; the Serializer is the commit
// check when the blockers retire.  These tests pin down the semantics:
// serial results always, commits when the conservative writes never
// materialize, aborts (and the conflict-history throttle) when they do.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"

namespace jade {
namespace {

RuntimeConfig sim_config(int machines, SchedPolicy sched) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  auto cluster = presets::ideal(machines);
  cluster.task_dispatch_overhead = 0;
  cluster.task_create_overhead = 0;
  cfg.cluster = std::move(cluster);
  cfg.sched = sched;
  return cfg;
}

RuntimeConfig thread_config(int threads, SchedPolicy sched) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = threads;
  cfg.sched = sched;
  return cfg;
}

SchedPolicy spec_on(int max_live = 8, int conflict_limit = 2) {
  SchedPolicy sched;
  sched.spec.enabled = true;
  sched.spec.max_live = max_live;
  sched.spec.conflict_limit = conflict_limit;
  return sched;
}

/// The conservative stage the bets here are against: it declares rd_wr on
/// `ctrl` and writes `writes` into it only when that is non-zero.  It must
/// last long enough for idle workers to run ahead: one virtual second, plus
/// a real sleep on ThreadEngine.
void spawn_stage(TaskContext& ctx, const Runtime& rt, SharedRef<int> ctrl,
                 int writes = 0) {
  const bool sleeps = rt.config().engine == EngineKind::kThread;
  ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
               [ctrl, sleeps, writes](TaskContext& t) {
                 t.charge(1e7);
                 if (sleeps)
                   std::this_thread::sleep_for(std::chrono::milliseconds(50));
                 if (writes != 0) t.read_write(ctrl)[0] = writes;
               });
}

/// The canonical speculation-friendly shape: a conservative "refresh" stage
/// declares rd_wr on a control object but (this round) never touches it,
/// then `solvers` independent tasks each read the control object and write
/// their own output.  Returns the run's duration; outputs land in `out`.
double run_pipeline(Runtime& rt, SharedRef<int> ctrl,
                    const std::vector<SharedRef<int>>& outs, int rounds) {
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < rounds; ++r) {
      spawn_stage(ctx, rt, ctrl);
      for (auto out : outs) {
        ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                     [ctrl, out, r](TaskContext& t) {
                       t.charge(1e7);
                       t.write(out)[0] = t.read(ctrl)[0] + r + 1;
                     });
      }
    }
  });
  return rt.sim_duration();
}

TEST(SimSpeculation, ConservativeWritersPipelineAndCommit) {
  auto elapsed = [&](SchedPolicy sched, RuntimeStats* stats) {
    Runtime rt(sim_config(8, sched));
    auto ctrl = rt.alloc<int>(1);
    std::vector<SharedRef<int>> outs;
    for (int i = 0; i < 4; ++i) outs.push_back(rt.alloc<int>(1));
    const double d = run_pipeline(rt, ctrl, outs, /*rounds=*/2);
    for (std::size_t i = 0; i < outs.size(); ++i)
      EXPECT_EQ(rt.get(outs[i])[0], 2);  // last round: ctrl(0) + 2
    if (stats != nullptr) *stats = rt.stats();
    return d;
  };
  RuntimeStats off_stats, on_stats;
  const double off = elapsed(SchedPolicy{}, &off_stats);
  const double on = elapsed(spec_on(), &on_stats);
  EXPECT_EQ(off_stats.spec_started, 0u);
  // At least the first solver wave speculated; everything committed (the
  // conservative writes never materialize), nothing aborted.
  EXPECT_GE(on_stats.spec_started, 4u);
  EXPECT_EQ(on_stats.spec_committed, on_stats.spec_started);
  EXPECT_EQ(on_stats.spec_aborted, 0u);
  // The solvers overlap the conservative stage they used to serialize
  // behind: at least one full stage of the 4-stage serial chain vanishes.
  EXPECT_LT(on, off - 0.9);
}

TEST(SimSpeculation, MaterializedWriteAbortsAndRerunsWithSerialResult) {
  auto result = [&](SchedPolicy sched, RuntimeStats* stats) {
    Runtime rt(sim_config(4, sched));
    auto ctrl = rt.alloc<int>(1);
    auto out = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                   [ctrl](TaskContext& t) {
                     t.charge(1e7);
                     t.read_write(ctrl)[0] = 7;  // the write materializes
                   });
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                   [ctrl, out](TaskContext& t) {
                     t.charge(1e6);
                     t.write(out)[0] = 2 * t.read(ctrl)[0];
                   });
    });
    if (stats != nullptr) *stats = rt.stats();
    return rt.get(out)[0];
  };
  RuntimeStats stats;
  EXPECT_EQ(result(SchedPolicy{}, nullptr), 14);
  EXPECT_EQ(result(spec_on(), &stats), 14);  // stale snapshot never commits
  EXPECT_GE(stats.spec_aborted, 1u);
  EXPECT_EQ(stats.spec_started, stats.spec_committed + stats.spec_aborted);
  EXPECT_GT(stats.spec_wasted_bytes, 0u);
}

TEST(SimSpeculation, ConflictHistoryThrottlesRepeatOffenders) {
  SchedPolicy sched = spec_on(/*max_live=*/2, /*conflict_limit=*/1);
  Runtime rt(sim_config(2, sched));
  auto ctrl = rt.alloc<int>(1);
  constexpr int kRounds = 6;
  std::vector<SharedRef<int>> outs;
  for (int i = 0; i < kRounds; ++i) outs.push_back(rt.alloc<int>(1));
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < kRounds; ++r) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                   [ctrl, r](TaskContext& t) {
                     t.charge(1e7);
                     t.read_write(ctrl)[0] = r + 1;  // always conflicts
                   });
      auto out = outs[static_cast<std::size_t>(r)];
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                   [ctrl, out](TaskContext& t) {
                     t.charge(1e6);
                     t.write(out)[0] = t.read(ctrl)[0];
                   });
    }
  });
  for (int r = 0; r < kRounds; ++r)
    EXPECT_EQ(rt.get(outs[static_cast<std::size_t>(r)])[0], r + 1);
  const RuntimeStats& s = rt.stats();
  // Once ctrl's conflict history reaches conflict_limit, no new bets start
  // against it; only bets already in flight (at most max_live) can still
  // abort.  Wasted speculation is therefore bounded per contested object by
  // conflict_limit + max_live - 1, however many rounds keep conflicting.
  EXPECT_LE(s.spec_aborted, 2u);  // conflict_limit + max_live - 1
  EXPECT_GE(s.spec_denied, 1u);
}

TEST(SimSpeculation, SameSeedRunsAreDeterministic) {
  auto capture = [&] {
    Runtime rt(sim_config(8, spec_on()));
    auto ctrl = rt.alloc<int>(1);
    std::vector<SharedRef<int>> outs;
    for (int i = 0; i < 6; ++i) outs.push_back(rt.alloc<int>(1));
    const double d = run_pipeline(rt, ctrl, outs, /*rounds=*/3);
    return std::make_tuple(d, rt.stats().spec_started,
                           rt.stats().spec_committed,
                           rt.stats().spec_aborted);
  };
  EXPECT_EQ(capture(), capture());
}

// --- Both engines: unsupported operations and the metrics registry --------

class SpeculationOnEngine : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeConfig config() const {
    return GetParam() == EngineKind::kThread ? thread_config(4, spec_on())
                                             : sim_config(4, spec_on());
  }

  /// Runs `program` on SerialEngine and, with speculation on, on the engine
  /// under test: the results must match, every bet that started must have
  /// ended in a commit or an abort, and at least one bet must have aborted.
  /// SimEngine's schedule is deterministic, so one run decides.  On
  /// ThreadEngine a bet starts only if an idle worker reaches it while the
  /// stage sleeps, so the run repeats until one has aborted.
  template <typename Program>
  void expect_serial_result_after_abort(Program program) const {
    Runtime serial;
    const auto want = program(serial);
    const int tries = GetParam() == EngineKind::kThread ? 5 : 1;
    std::uint64_t aborted = 0;
    for (int i = 0; i < tries && aborted == 0; ++i) {
      Runtime rt(config());
      EXPECT_EQ(program(rt), want);
      const RuntimeStats& s = rt.stats();
      EXPECT_EQ(s.spec_started, s.spec_committed + s.spec_aborted);
      aborted = s.spec_aborted;
    }
    EXPECT_GE(aborted, 1u) << "no bet aborted: the abort path never ran";
  }
};

TEST_P(SpeculationOnEngine, UnsupportedOperationsAbortSilently) {
  // A deferred->immediate conversion is a with-cont edge the snapshot path
  // cannot take: the bet aborts and the task re-runs normally.
  expect_serial_result_after_abort([](Runtime& rt) {
    auto ctrl = rt.alloc<int>(1);
    auto out = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      spawn_stage(ctx, rt, ctrl);
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.df_wr(out); },
                   [ctrl, out](TaskContext& t) {
                     t.charge(1e6);
                     (void)t.read(ctrl)[0];
                     t.with_cont([&](AccessDecl& d) { d.wr(out); });
                     t.write(out)[0] = 41;
                   });
    });
    return rt.get(out);
  });
}

TEST_P(SpeculationOnEngine, SpawnAbortsSilently) {
  // Creating a task escapes the snapshot-isolated attempt; the normal
  // re-run creates the child for real.
  expect_serial_result_after_abort([](Runtime& rt) {
    auto ctrl = rt.alloc<int>(1);
    auto out = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      spawn_stage(ctx, rt, ctrl);
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                   [ctrl, out](TaskContext& t) {
                     const int base = t.read(ctrl)[0];
                     t.withonly([&](AccessDecl& d) { d.wr(out); },
                                [out, base](TaskContext& c) {
                                  c.write(out)[0] = base + 7;
                                });
                   });
    });
    return rt.get(out);
  });
}

TEST_P(SpeculationOnEngine, UndeclaredAccessAbortsSilently) {
  // The stage's write materializes, so a bet runs on a stale snapshot in
  // which the body reaches for an object it never declared.  That must
  // abort the attempt, not fail the run: the normal re-run sees the
  // written value and stays within its declaration.
  expect_serial_result_after_abort([](Runtime& rt) {
    auto ctrl = rt.alloc<int>(1);
    auto other = rt.alloc<int>(1);
    auto out = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      spawn_stage(ctx, rt, ctrl, /*writes=*/3);
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                   [ctrl, other, out](TaskContext& t) {
                     const int c = t.read(ctrl)[0];
                     if (c == 0) (void)t.read(other)[0];  // undeclared
                     t.write(out)[0] = c + 1;
                   });
    });
    return rt.get(out);
  });
}

TEST_P(SpeculationOnEngine, CommuteAcquisitionAbortsSilently) {
  // Commuting updates need the token machinery, which the snapshot path
  // does not take; each bet aborts and the commuters re-run under it.
  expect_serial_result_after_abort([](Runtime& rt) {
    auto ctrl = rt.alloc<int>(1);
    auto acc = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      spawn_stage(ctx, rt, ctrl);
      for (int i = 0; i < 3; ++i) {
        ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.cm(acc); },
                     [ctrl, acc](TaskContext& t) {
                       const int c = t.read(ctrl)[0];
                       t.commute(acc)[0] += c + 1;
                     });
      }
    });
    return rt.get(acc);
  });
}

TEST_P(SpeculationOnEngine, CountersReachTheMetricsRegistry) {
  Runtime rt(config());
  auto ctrl = rt.alloc<int>(1);
  std::vector<SharedRef<int>> outs{rt.alloc<int>(1), rt.alloc<int>(1)};
  run_pipeline(rt, ctrl, outs, 1);
  const RuntimeStats& s = rt.stats();
  EXPECT_GT(s.spec_started, 0u);
  auto& m = rt.engine().metrics();
  EXPECT_EQ(m.counter("spec.started").value(), s.spec_started);
  EXPECT_EQ(m.counter("spec.committed").value(), s.spec_committed);
  EXPECT_EQ(m.counter("spec.aborted").value(), s.spec_aborted);
  EXPECT_EQ(m.counter("spec.denied").value(), s.spec_denied);
  EXPECT_EQ(m.counter("spec.wasted_bytes").value(), s.spec_wasted_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SpeculationOnEngine,
    ::testing::Values(EngineKind::kSim, EngineKind::kThread),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return info.param == EngineKind::kSim ? "Sim" : "Thread";
    });

// --- ThreadEngine: real parallelism, correctness under any interleaving ----

TEST(ThreadSpeculation, SerialSemanticsUnderCommitsAndAborts) {
  for (int iter = 0; iter < 20; ++iter) {
    Runtime rt(thread_config(4, spec_on()));
    auto ctrl = rt.alloc<int>(1);
    constexpr int kRounds = 4;
    std::vector<SharedRef<int>> outs;
    for (int i = 0; i < kRounds; ++i) outs.push_back(rt.alloc<int>(1));
    rt.run([&](TaskContext& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        const bool writes = (r % 2) == 1;
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                     [ctrl, writes, r](TaskContext& t) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(1));
                       if (writes) t.read_write(ctrl)[0] = r;
                     });
        auto out = outs[static_cast<std::size_t>(r)];
        ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                     [ctrl, out](TaskContext& t) {
                       t.write(out)[0] = t.read(ctrl)[0] + 100;
                     });
      }
    });
    // Serial semantics: round r's solver sees the last materialized write.
    EXPECT_EQ(rt.get(outs[0])[0], 100);  // no write yet
    EXPECT_EQ(rt.get(outs[1])[0], 101);
    EXPECT_EQ(rt.get(outs[2])[0], 101);
    EXPECT_EQ(rt.get(outs[3])[0], 103);
    const RuntimeStats& s = rt.stats();
    EXPECT_EQ(s.spec_started, s.spec_committed + s.spec_aborted);
  }
}

TEST(ThreadSpeculation, IdleWorkersRunAheadAndCommit) {
  Runtime rt(thread_config(4, spec_on()));
  auto ctrl = rt.alloc<int>(1);
  std::vector<SharedRef<int>> outs;
  for (int i = 0; i < 8; ++i) outs.push_back(rt.alloc<int>(1));
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(ctrl); },
                 [](TaskContext& t) {
                   (void)t;
                   // A long conservative stage: idle workers should run the
                   // solvers ahead instead of waiting it out.
                   std::this_thread::sleep_for(std::chrono::milliseconds(50));
                 });
    for (auto out : outs) {
      ctx.withonly([&](AccessDecl& d) { d.rd(ctrl); d.wr(out); },
                   [ctrl, out](TaskContext& t) {
                     t.write(out)[0] = t.read(ctrl)[0] + 5;
                   });
    }
  });
  for (auto out : outs) EXPECT_EQ(rt.get(out)[0], 5);
  const RuntimeStats& s = rt.stats();
  EXPECT_GT(s.spec_started, 0u);
  EXPECT_EQ(s.spec_committed, s.spec_started);
  EXPECT_EQ(s.spec_aborted, 0u);
}

}  // namespace
}  // namespace jade
