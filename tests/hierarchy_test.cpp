// Tests of hierarchical concurrency (Section 4.4): nested withonly-do,
// coverage enforcement, and parent/child interleaving rules.
#include <gtest/gtest.h>

#include <vector>

#include "bounded_wait.hpp"
#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"

namespace jade {
namespace {

RuntimeConfig config_for(EngineKind kind, int machines = 4) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = machines;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(machines);
  return cfg;
}

class HierarchyTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(HierarchyTest, RecursiveTreeSum) {
  // Recursive pairwise accumulation: each level splits its leaf range and
  // delegates to children, the "fully recursive manner" of Section 4.4.
  // Every level accumulates into the same output via commuting updates,
  // covered down the chain by each parent's cm declaration.
  Runtime rt(config_for(GetParam()));
  constexpr int kLeaves = 8;
  std::vector<SharedRef<double>> leaves;
  for (int i = 0; i < kLeaves; ++i)
    leaves.push_back(rt.alloc<double>(1, "leaf" + std::to_string(i)));
  auto out = rt.alloc<double>(1, "out");

  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kLeaves; ++i) {
      auto leaf = leaves[i];
      ctx.withonly([&](AccessDecl& d) { d.wr(leaf); },
                   [leaf, i](TaskContext& t) { t.write(leaf)[0] = i + 1; });
    }
    // Recursive splitter: declares rd on its leaf range and cm on out; at
    // size 1 it adds its leaf, otherwise it creates two covered children.
    struct Splitter {
      const std::vector<SharedRef<double>>* leaves;
      SharedRef<double> out;
      void operator()(TaskContext& t, int lo, int hi) const {
        if (hi - lo == 1) {
          t.commute(out)[0] += t.read((*leaves)[lo])[0];
          return;
        }
        const int mid = (lo + hi) / 2;
        for (auto [a, b] : {std::pair{lo, mid}, std::pair{mid, hi}}) {
          auto self = *this;
          t.withonly(
              [&](AccessDecl& d) {
                for (int i = a; i < b; ++i) d.rd((*leaves)[i]);
                d.cm(out);
              },
              [self, a, b](TaskContext& c) { self(c, a, b); });
        }
      }
    };
    Splitter splitter{&leaves, out};
    ctx.withonly(
        [&](AccessDecl& d) {
          for (auto& leaf : leaves) d.rd(leaf);
          d.cm(out);
        },
        [splitter](TaskContext& t) { splitter(t, 0, 8); });
  });
  EXPECT_DOUBLE_EQ(rt.get(out)[0], kLeaves * (kLeaves + 1) / 2.0);
}

TEST_P(HierarchyTest, ChildrenExecuteBeforeParentContinuation) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   for (int i = 0; i < 3; ++i) {
                     t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                [v, i](TaskContext& c) {
                                  auto h = c.read_write(v);
                                  h[0] = h[0] * 10 + (i + 1);
                                });
                   }
                   // Parent's later access observes all three children in
                   // creation order: 0 -> 1 -> 12 -> 123.
                   auto h = t.read_write(v);
                   h[0] = h[0] * 10 + 9;
                 });
  });
  EXPECT_EQ(rt.get(v)[0], 1239);
}

TEST_P(HierarchyTest, GrandchildrenNest) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                              [v](TaskContext& c) {
                                c.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                           [v](TaskContext& g) {
                                             g.read_write(v)[0] += 1;
                                           });
                                auto h = c.read_write(v);
                                h[0] *= 3;
                              });
                   auto h = t.read_write(v);
                   h[0] += 100;
                 });
  });
  // Serial: v=0; grandchild +1 -> 1; child *3 -> 3; parent +100 -> 103.
  EXPECT_EQ(rt.get(v)[0], 103);
}

TEST_P(HierarchyTest, SiblingSubtreesOnDisjointDataRunIndependently) {
  Runtime rt(config_for(GetParam()));
  auto a = rt.alloc<double>(1, "a");
  auto b = rt.alloc<double>(1, "b");
  rt.run([&](TaskContext& ctx) {
    auto subtree = [](SharedRef<double> obj, double seed) {
      return [obj, seed](TaskContext& t) {
        for (int i = 0; i < 4; ++i) {
          t.withonly([&](AccessDecl& d) { d.rd_wr(obj); },
                     [obj, seed](TaskContext& c) {
                       c.read_write(obj)[0] += seed;
                     });
        }
      };
    };
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(a); }, subtree(a, 1.5));
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(b); }, subtree(b, 2.5));
  });
  EXPECT_DOUBLE_EQ(rt.get(a)[0], 6.0);
  EXPECT_DOUBLE_EQ(rt.get(b)[0], 10.0);
}

TEST_P(HierarchyTest, ParentCompletesWhileChildrenOutstanding) {
  // A parent that spawns children and returns immediately: the runtime must
  // keep the children's effects ordered before later root tasks.
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<std::int64_t>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) {
                   for (int i = 0; i < 5; ++i) {
                     t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                                [v](TaskContext& c) {
                                  c.read_write(v)[0] += 1;
                                });
                   }
                   // parent returns without touching v again
                 });
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                 [v](TaskContext& t) { t.read_write(v)[0] *= 10; });
  });
  EXPECT_EQ(rt.get(v)[0], 50);
}

TEST_P(HierarchyTest, ChildInheritsDeferredCoverage) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<double>(1, "v");
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.df_rd_wr(v); },
                 [v](TaskContext& t) {
                   // The parent never converts; the child does the work.
                   t.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                              [v](TaskContext& c) {
                                c.read_write(v)[0] = 4.25;
                              });
                 });
  });
  EXPECT_DOUBLE_EQ(rt.get(v)[0], 4.25);
}

TEST_P(HierarchyTest, CoverageViolationInGrandchild) {
  Runtime rt(config_for(GetParam()));
  auto v = rt.alloc<double>(1, "v");
  EXPECT_THROW(
      rt.run([&](TaskContext& ctx) {
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                     [v](TaskContext& t) {
                       t.withonly([&](AccessDecl& d) { d.rd(v); },
                                  [v](TaskContext& c) {
                                    // grandchild escalates rd -> wr: error
                                    c.withonly(
                                        [&](AccessDecl& d) { d.wr(v); },
                                        [](TaskContext&) {});
                                  });
                     });
      }),
      HierarchyViolationError);
}

TEST_P(HierarchyTest, RejectedChildLeavesNoRecords) {
  // The child's first request is valid and its second breaks the hierarchy
  // rule.  The rejected child must leave no record behind: the parent
  // catches the error, creates a valid child, waits for it and finishes.
  // A stray record would hold `a` for a task that never runs.
  RuntimeConfig cfg = config_for(GetParam(), 2);
  if (GetParam() == EngineKind::kSim) cfg.cluster = presets::ipsc860(2);
  run_bounded("rejected-child program", [&] {
    Runtime rt(cfg);
    auto a = rt.alloc<int>(1, "a");
    auto b = rt.alloc<int>(1, "b");
    bool rejected = false;
    rt.run([&](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(a); },
                   [a, b, &rejected](TaskContext& t) {
                     const auto uncovered = [&](AccessDecl& d) {
                       d.rd_wr(a);
                       d.rd_wr(b);
                     };
                     try {
                       t.withonly(uncovered, [](TaskContext&) {});
                     } catch (const HierarchyViolationError&) {
                       rejected = true;
                     }
                     t.withonly([&](AccessDecl& d) { d.rd_wr(a); },
                                [a](TaskContext& c) {
                                  c.read_write(a)[0] += 1;
                                });
                     t.read_write(a)[0] *= 10;
                   });
    });
    EXPECT_TRUE(rejected);
    EXPECT_EQ(rt.get(a)[0], 10);
    EXPECT_EQ(rt.stats().tasks_created, 2u);
  });
}

INSTANTIATE_TEST_SUITE_P(AllEngines, HierarchyTest,
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

}  // namespace
}  // namespace jade
