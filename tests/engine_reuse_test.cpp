// Engine reuse: multiple sequential graphs on one engine instance.  The
// server keeps one engine resident and feeds it a stream of programs, so
// run() must leave the engine ready for the next graph — serializer
// re-rooted, governor counters zeroed, stats fresh — while shared objects
// and their contents persist across runs.
#include <gtest/gtest.h>

#include <stdexcept>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"

namespace jade {
namespace {

RuntimeConfig config_for(EngineKind kind) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = 3;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(3);
  return cfg;
}

class EngineReuseTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineReuseTest, SequentialGraphsProduceIndependentResults) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::uint64_t>(8, "v");
  for (std::uint64_t round = 1; round <= 3; ++round) {
    std::vector<std::uint64_t> init(8, round);
    rt.put(v, std::span<const std::uint64_t>(init));
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < 8; ++i) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                     [v, i](TaskContext& t) {
                       auto h = t.read_write(v);
                       h[static_cast<std::size_t>(i)] *= 10;
                     });
      }
    });
    const std::vector<std::uint64_t> out = rt.get(v);
    for (std::uint64_t x : out) EXPECT_EQ(x, round * 10);
    // Fresh per-run stats: this round's graph only.
    EXPECT_EQ(rt.stats().tasks_created, 8u);
  }
}

TEST_P(EngineReuseTest, ObjectContentsPersistAcrossRuns) {
  Runtime rt(config_for(GetParam()));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  for (int round = 0; round < 4; ++round) {
    rt.run([&](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(acc); },
                   [acc](TaskContext& t) { t.read_write(acc)[0] += 1; });
    });
  }
  EXPECT_EQ(rt.get(acc)[0], 4u);
}

TEST_P(EngineReuseTest, ThrottledGraphReusesGovernorState) {
  RuntimeConfig cfg = config_for(GetParam());
  cfg.sched.throttle.enabled = true;
  cfg.sched.throttle.high_water = 4;
  cfg.sched.throttle.low_water = 2;
  Runtime rt(cfg);
  auto v = rt.alloc<std::uint64_t>(1, "v");
  const auto run_increments = [&](int tasks) {
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < tasks; ++i) {
        ctx.withonly([&](AccessDecl& d) { d.cm(v); },
                     [v](TaskContext& t) { t.commute(v)[0] += 1; });
      }
    });
    // The registry publishes exactly this run's counters.
    const RuntimeStats& s = rt.stats();
    obs::MetricsRegistry& m = rt.metrics();
    EXPECT_EQ(s.tasks_created, static_cast<std::uint64_t>(tasks));
    EXPECT_EQ(m.counter("engine.tasks_created").value(), s.tasks_created);
    EXPECT_EQ(m.counter("engine.throttle_suspensions").value(),
              s.throttle_suspensions);
    EXPECT_EQ(m.counter("engine.throttle_giveups").value(), s.throttle_giveups);
  };
  run_increments(64);
  run_increments(64);
  EXPECT_EQ(rt.get(v)[0], 128u);
  // One task cannot fill the throttle's window: nothing carries over from
  // the suspensions of the runs before.
  run_increments(1);
  EXPECT_EQ(rt.stats().throttle_suspensions, 0u);
  EXPECT_EQ(rt.get(v)[0], 129u);
}

TEST_P(EngineReuseTest, AllocationBetweenRuns) {
  Runtime rt(config_for(GetParam()));
  auto a = rt.alloc<std::uint64_t>(1, "a");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.wr(a); },
                 [a](TaskContext& t) { t.write(a)[0] = 7; });
  });
  auto b = rt.alloc<std::uint64_t>(1, "b");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd(a); d.wr(b); },
                 [a, b](TaskContext& t) { t.write(b)[0] = t.read(a)[0] + 1; });
  });
  EXPECT_EQ(rt.get(b)[0], 8u);
}

TEST_P(EngineReuseTest, FailedRunPublishesItsCounters) {
  // A run whose root throws ends like any other: the registry holds that
  // run's counters, not the previous run's.
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::uint64_t>(1, "v");
  const auto create = [&](TaskContext& ctx, int tasks) {
    for (int i = 0; i < tasks; ++i)
      ctx.withonly([&](AccessDecl& d) { d.cm(v); },
                   [v](TaskContext& t) { t.commute(v)[0] += 1; });
  };
  for (int round = 0; round < 2; ++round)
    rt.run([&](TaskContext& ctx) { create(ctx, 3); });
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 create(ctx, 8);
                 throw std::runtime_error("root fails");
               }),
               std::runtime_error);
  const std::uint64_t created = rt.stats().tasks_created;
  EXPECT_EQ(rt.metrics().counter("engine.tasks_created").value(), created);
  EXPECT_EQ(created, 8u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineReuseTest,
                         ::testing::Values(EngineKind::kSerial,
                                           EngineKind::kThread,
                                           EngineKind::kSim),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kSerial: return "Serial";
                             case EngineKind::kThread: return "Thread";
                             case EngineKind::kSim: return "Sim";
                           }
                           return "Unknown";
                         });

TEST(EngineReuse, FaultInjectedSimEngineRejectsSecondRun) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::mica(4);
  cfg.fault.enabled = true;
  cfg.fault.seed = 42;
  Runtime rt(cfg);
  rt.run([](TaskContext&) {});
  EXPECT_THROW(rt.run([](TaskContext&) {}), ConfigError);
}

TEST(EngineReuse, SimVirtualClockMonotonicAcrossRuns) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ideal(2);
  Runtime rt(cfg);
  auto v = rt.alloc<double>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   t.read_write(v)[0] += 1;
                   t.charge(100.0);
                 });
  });
  const SimTime first = rt.sim_duration();
  EXPECT_GT(first, 0.0);
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   t.read_write(v)[0] += 1;
                   t.charge(100.0);
                 });
  });
  EXPECT_GT(rt.sim_duration(), first);
  EXPECT_EQ(rt.get(v)[0], 2.0);
}

}  // namespace
}  // namespace jade
