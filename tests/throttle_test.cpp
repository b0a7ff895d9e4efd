// Tests of task-creation throttling (Section 3.3, Figure 7(e)): the runtime
// suspends over-eager creators (or inlines ready tasks) without deadlock.
// Also the multi-tenant extension: per-tenant live-task quotas through the
// same gate (fair-share windows, no starvation).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bounded_wait.hpp"
#include "jade/core/runtime.hpp"
#include "jade/core/tenant.hpp"
#include "jade/mach/presets.hpp"
#include "jade/sched/governor.hpp"

namespace jade {
namespace {

RuntimeConfig throttled_config(EngineKind kind, std::uint64_t high,
                               std::uint64_t low, int machines = 2) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = machines;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(machines);
  cfg.sched.throttle.enabled = true;
  cfg.sched.throttle.high_water = high;
  cfg.sched.throttle.low_water = low;
  return cfg;
}

struct ThrottleCase {
  EngineKind engine;
  int workers;
};

class ThrottleTest : public ::testing::TestWithParam<ThrottleCase> {
 protected:
  RuntimeConfig config(std::uint64_t high, std::uint64_t low) const {
    return throttled_config(GetParam().engine, high, low, GetParam().workers);
  }
  bool sim() const { return GetParam().engine == EngineKind::kSim; }

  /// Runs `fn` once on SimEngine (virtual time repeats itself exactly) and
  /// 10 times on ThreadEngine, each run under a bounded wait: a creator
  /// that misses its wakeup fails the test instead of hanging it.
  template <typename F>
  void repeat_bounded(const F& fn) const {
    const int reps = sim() ? 1 : 10;
    for (int rep = 0; rep < reps; ++rep) run_bounded("throttled run", fn);
  }
};

TEST_P(ThrottleTest, ResultUnchangedUnderTightThrottle) {
  repeat_bounded([&] {
    Runtime rt(config(4, 2));
    // Unsigned: 100 doublings wrap, which is well-defined and still
    // order-sensitive (the point of the test).
    auto v = rt.alloc<std::uint64_t>(1, "v");
    constexpr int kTasks = 100;
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < kTasks; ++i) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                     [v, i](TaskContext& t) {
                       auto h = t.read_write(v);
                       h[0] = h[0] * 2 + (i % 3);
                     });
      }
    });
    std::uint64_t expect = 0;
    for (int i = 0; i < kTasks; ++i) expect = expect * 2 + (i % 3);
    EXPECT_EQ(rt.get(v)[0], expect);
    // Whether the creator ever outruns the workers is timing-dependent on
    // the thread engine; only virtual time makes the suspension count
    // deterministic.
    if (sim()) {
      EXPECT_GT(rt.stats().throttle_suspensions, 0u);
    }
  });
}

TEST_P(ThrottleTest, TightestWaterMarkNeverLosesAWakeup) {
  // High water 1, low water 0: the creator suspends after almost every
  // creation and resumes only once every created task has started, so
  // nearly every start races a suspending creator.  A dependence chain
  // interleaved with independent tasks keeps both kinds of start busy.
  repeat_bounded([&] {
    Runtime rt(config(1, 0));
    constexpr int kTasks = 300;
    auto chain = rt.alloc<std::uint64_t>(1, "chain");
    std::vector<SharedRef<std::uint64_t>> cells;
    for (int i = 0; i < 16; ++i) cells.push_back(rt.alloc<std::uint64_t>(1));
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < kTasks; ++i) {
        if (i % 2 == 0) {
          ctx.withonly([&](AccessDecl& d) { d.rd_wr(chain); },
                       [chain, i](TaskContext& t) {
                         auto h = t.read_write(chain);
                         h[0] = h[0] * 3 + static_cast<std::uint64_t>(i);
                       });
        } else {
          auto cell = cells[static_cast<std::size_t>(i % 16)];
          ctx.withonly([&](AccessDecl& d) { d.rd_wr(cell); },
                       [cell](TaskContext& t) { t.read_write(cell)[0] += 1; });
        }
      }
    });
    std::uint64_t expect = 0;
    for (int i = 0; i < kTasks; i += 2)
      expect = expect * 3 + static_cast<std::uint64_t>(i);
    EXPECT_EQ(rt.get(chain)[0], expect);
    std::uint64_t increments = 0;
    for (auto& cell : cells) increments += rt.get(cell)[0];
    EXPECT_EQ(increments, static_cast<std::uint64_t>(kTasks / 2));
    EXPECT_EQ(rt.stats().tasks_created, static_cast<std::uint64_t>(kTasks));
  });
}

TEST_P(ThrottleTest, IndependentTasksStillAllComplete) {
  repeat_bounded([&] {
    Runtime rt(config(8, 4));
    constexpr int kTasks = 64;
    std::vector<SharedRef<int>> objs;
    for (int i = 0; i < kTasks; ++i) objs.push_back(rt.alloc<int>(1));
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < kTasks; ++i) {
        auto o = objs[i];
        ctx.withonly([&](AccessDecl& d) { d.wr(o); },
                     [o, i](TaskContext& t) { t.write(o)[0] = i + 1; });
      }
    });
    for (int i = 0; i < kTasks; ++i) EXPECT_EQ(rt.get(objs[i])[0], i + 1);
    EXPECT_EQ(rt.stats().tasks_created, static_cast<std::uint64_t>(kTasks));
  });
}

TEST_P(ThrottleTest, NestedCreatorsThrottleWithoutDeadlock) {
  // Parents that fan out children while the throttle is engaged: the paper's
  // guarantee is that suspending creators can never deadlock because a task
  // only ever waits for earlier tasks.
  repeat_bounded([&] {
    Runtime rt(config(6, 3));
    auto acc = rt.alloc<std::int64_t>(1, "acc");
    constexpr int kParents = 8;
    constexpr int kKids = 8;
    rt.run([&](TaskContext& ctx) {
      for (int p = 0; p < kParents; ++p) {
        ctx.withonly([&](AccessDecl& d) { d.cm(acc); },
                     [acc](TaskContext& t) {
                       for (int k = 0; k < kKids; ++k) {
                         t.withonly([&](AccessDecl& d) { d.cm(acc); },
                                    [acc](TaskContext& c) {
                                      c.commute(acc)[0] += 1;
                                    });
                       }
                     });
      }
    });
    EXPECT_EQ(rt.get(acc)[0], kParents * kKids);
  });
}

TEST_P(ThrottleTest, DisabledThrottleNeverSuspends) {
  repeat_bounded([&] {
    RuntimeConfig cfg;
    cfg.engine = GetParam().engine;
    cfg.threads = GetParam().workers;
    if (sim()) cfg.cluster = presets::ideal(GetParam().workers);
    Runtime rt(cfg);
    auto v = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < 50; ++i)
        ctx.withonly([&](AccessDecl& d) { d.cm(v); },
                     [v](TaskContext& t) { t.commute(v)[0] += 1; });
    });
    EXPECT_EQ(rt.stats().throttle_suspensions, 0u);
    EXPECT_EQ(rt.get(v)[0], 50);
  });
}

std::string throttle_case_name(
    const ::testing::TestParamInfo<ThrottleCase>& info) {
  if (info.param.engine == EngineKind::kSim) return "Sim";
  // Two workers keep the suite's original ThreadEngine name.
  if (info.param.workers == 2) return "Thread";
  return "Thread" + std::to_string(info.param.workers);
}

INSTANTIATE_TEST_SUITE_P(ParallelEngines, ThrottleTest,
                         ::testing::Values(ThrottleCase{EngineKind::kThread, 2},
                                           ThrottleCase{EngineKind::kThread, 1},
                                           ThrottleCase{EngineKind::kThread, 8},
                                           ThrottleCase{EngineKind::kSim, 2}),
                         throttle_case_name);

// --- multi-tenant fairness (per-tenant quotas through the shared gate) -----

TEST(FairShare, WindowsProportionalWithStarvationFloor) {
  const auto w = fair_share_windows(100, {3.0, 1.0, 0.0}, 2);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].first, 75u);
  EXPECT_EQ(w[1].first, 25u);
  EXPECT_EQ(w[2].first, 2u);  // zero weight still gets the floor
  for (const auto& [hi, lo] : w) {
    EXPECT_GE(lo, 1u);
    EXPECT_LE(lo, hi);
  }
  // Tiny pool, many tenants: everyone still gets the floor.
  const auto tiny = fair_share_windows(4, {1, 1, 1, 1, 1, 1, 1, 1}, 2);
  for (const auto& [hi, lo] : tiny) EXPECT_EQ(hi, 2u);
  EXPECT_TRUE(fair_share_windows(100, {}, 1).empty());
}

TEST(TenantFairness, ThreadUnequalQuotasAllTenantsProgress) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 3;
  Runtime rt(cfg);
  TenantCtl big(1), mid(2), small(3);
  big.quota_hi = 12;
  big.quota_lo = 6;
  mid.quota_hi = 4;
  mid.quota_lo = 2;
  small.quota_hi = 2;
  small.quota_lo = 1;
  constexpr int kTasks = 200;
  std::vector<SharedRef<std::uint64_t>> counters;
  for (int i = 0; i < 3; ++i)
    counters.push_back(rt.alloc<std::uint64_t>(1, "ctr"));
  TenantCtl* tenants[] = {&big, &mid, &small};
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 3; ++i) {
      auto ctr = counters[static_cast<std::size_t>(i)];
      ctx.withonly_tenant(tenants[i], [](AccessDecl&) {},
                          [ctr](TaskContext& t) {
                            for (int k = 0; k < kTasks; ++k) {
                              t.withonly(
                                  [&](AccessDecl& d) { d.cm(ctr); },
                                  [ctr](TaskContext& u) {
                                    u.commute(ctr)[0] += 1;
                                  });
                            }
                          });
    }
  });
  // No starvation: every tenant ran its whole program to completion.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(rt.get(counters[static_cast<std::size_t>(i)])[0],
              static_cast<std::uint64_t>(kTasks));
  const std::uint64_t giveups = rt.stats().throttle_giveups;
  for (TenantCtl* t : tenants) {
    EXPECT_EQ(t->tasks_completed.load(), t->tasks_created.load());
    // The gate admits one creation past quota_hi per pass; only the
    // deadlock-escape give-up may exceed that.
    EXPECT_LE(t->max_live.load(), t->quota_hi.load() + 1 + giveups);
  }
  EXPECT_LT(small.max_live.load(), big.max_live.load());
}

TEST(TenantFairness, SimLargerQuotaFinishesFirst) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ideal(4);
  Runtime rt(cfg);
  TenantCtl big(1), mid(2), small(3);
  big.quota_hi = 12;
  big.quota_lo = 6;
  mid.quota_hi = 6;
  mid.quota_lo = 3;
  small.quota_hi = 2;
  small.quota_lo = 1;
  std::vector<TenantId> finish_order;
  TenantCtl* tenants[] = {&big, &mid, &small};
  for (TenantCtl* t : tenants)
    t->on_quiesce = [&finish_order](TenantCtl& c) {
      finish_order.push_back(c.id);
    };
  rt.run([&](TaskContext& ctx) {
    for (TenantCtl* t : tenants) {
      ctx.withonly_tenant(t, [](AccessDecl&) {}, [](TaskContext& c) {
        for (int k = 0; k < 48; ++k) {
          c.withonly([](AccessDecl&) {},
                     [](TaskContext& u) { u.charge(1.0); });
        }
      });
    }
  });
  // Equal work, unequal windows: more exploitable concurrency finishes
  // sooner, and virtual time makes the order deterministic.
  ASSERT_EQ(finish_order.size(), 3u);
  EXPECT_EQ(finish_order.back(), small.id);
  for (TenantCtl* t : tenants)
    EXPECT_EQ(t->tasks_completed.load(), t->tasks_created.load());
}

}  // namespace
}  // namespace jade
