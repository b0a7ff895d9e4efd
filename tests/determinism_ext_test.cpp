// Extended determinism property tests: random programs that exercise the
// full construct set — deferred rights with with-cont conversion and early
// retirement, commuting updates, write-only tasks, and nested hierarchies —
// must produce identical shared memory on every engine and platform.
//
// Commuting updates use integer addition (truly commutative/associative),
// so reordering among commuters cannot change the final state; everything
// else is order-sensitive by construction, so any serialization bug flips
// the result.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/error.hpp"
#include "jade/support/rng.hpp"

namespace jade {
namespace {

std::uint64_t mix(std::uint64_t acc, std::uint64_t v) {
  acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc * 0x2545f4914f6cdd1dULL + 1;
}

enum class Kind : int {
  kNormal = 0,
  kWriteOnly,
  kCommute,
  kDeferredConsumer,
  kParent,
};

struct TaskSpec {
  Kind kind;
  int target;
  std::vector<int> aux;  ///< reads (normal/parent) or deferred set (consumer)
  std::uint64_t salt;
  int children;  ///< parent kind only
};

struct Program {
  int objects;
  std::vector<TaskSpec> tasks;
};

Program generate(std::uint64_t seed, int objects, int count) {
  Rng rng(seed);
  Program p;
  p.objects = objects;
  for (int i = 0; i < count; ++i) {
    TaskSpec t;
    t.kind = static_cast<Kind>(rng.next_below(5));
    t.target = static_cast<int>(rng.next_below(objects));
    t.salt = rng.next_u64() | 1;
    t.children = 1 + static_cast<int>(rng.next_below(3));
    const int aux_count = 1 + static_cast<int>(rng.next_below(3));
    for (int a = 0; a < aux_count; ++a) {
      const int obj = static_cast<int>(rng.next_below(objects));
      const bool duplicate =
          std::find(t.aux.begin(), t.aux.end(), obj) != t.aux.end();
      if (obj != t.target && !duplicate) t.aux.push_back(obj);
    }
    p.tasks.push_back(std::move(t));
  }
  return p;
}

void emit_task(TaskContext& ctx, const TaskSpec& ts,
               const std::vector<SharedRef<std::uint64_t>>& objs) {
  const auto target = objs[static_cast<std::size_t>(ts.target)];
  switch (ts.kind) {
    case Kind::kNormal:
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(target);
            for (int r : ts.aux) d.rd(objs[static_cast<std::size_t>(r)]);
          },
          [&objs, ts, target](TaskContext& t) {
            std::uint64_t acc = ts.salt;
            for (int r : ts.aux)
              acc = mix(acc, t.read(objs[static_cast<std::size_t>(r)])[0]);
            auto h = t.read_write(target);
            h[0] = mix(h[0], acc);
          });
      break;
    case Kind::kWriteOnly:
      // wr-only right: stores allowed, loads not required.
      ctx.withonly([&](AccessDecl& d) { d.wr(target); },
                   [target, salt = ts.salt](TaskContext& t) {
                     auto h = t.write(target);
                     h[0] = salt;
                     h[1] = salt >> 7;
                   });
      break;
    case Kind::kCommute:
      ctx.withonly([&](AccessDecl& d) { d.cm(target); },
                   [target, salt = ts.salt](TaskContext& t) {
                     t.commute(target)[1] += salt;  // commutative update
                   });
      break;
    case Kind::kDeferredConsumer:
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(target);
            for (int r : ts.aux) d.df_rd(objs[static_cast<std::size_t>(r)]);
          },
          [&objs, ts, target](TaskContext& t) {
            std::uint64_t acc = ts.salt;
            for (int r : ts.aux) {
              const auto obj = objs[static_cast<std::size_t>(r)];
              t.with_cont([&](AccessDecl& d) { d.rd(obj); });
              acc = mix(acc, t.read(obj)[0]);
              t.with_cont([&](AccessDecl& d) { d.no_rd(obj); });
            }
            auto h = t.read_write(target);
            h[0] = mix(h[0], acc);
          });
      break;
    case Kind::kParent:
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(target);
            for (int r : ts.aux) d.rd(objs[static_cast<std::size_t>(r)]);
          },
          [&objs, ts, target](TaskContext& t) {
            {
              auto h = t.read_write(target);
              h[0] = mix(h[0], ts.salt);
            }
            for (int c = 0; c < ts.children; ++c) {
              const std::uint64_t child_salt = ts.salt * (2 * c + 3);
              // Children alternate: rd_wr on the parent's target, or rd on
              // one of the parent's aux objects mixed into the target.
              if (c % 2 == 0 || ts.aux.empty()) {
                t.withonly([&](AccessDecl& d) { d.rd_wr(target); },
                           [target, child_salt](TaskContext& ct) {
                             auto h = ct.read_write(target);
                             h[0] = mix(h[0], child_salt);
                           });
              } else {
                const auto aux =
                    objs[static_cast<std::size_t>(ts.aux[0])];
                t.withonly(
                    [&](AccessDecl& d) {
                      d.rd(aux);
                      d.rd_wr(target);
                    },
                    [aux, target, child_salt](TaskContext& ct) {
                      auto h = ct.read_write(target);
                      h[0] = mix(h[0], child_salt ^ ct.read(aux)[0]);
                    });
              }
            }
            // Reacquire after the children: must observe their effects.
            // With two or more children, a reading child precedes the aux
            // read on aux[0].
            std::uint64_t seen = 0x5eedULL;
            if (!ts.aux.empty())
              seen ^= t.read(objs[static_cast<std::size_t>(ts.aux[0])])[0];
            auto h = t.read_write(target);
            h[0] = mix(h[0], seen);
          });
      break;
  }
}

std::vector<std::uint64_t> run_program(const Program& p, RuntimeConfig cfg) {
  Runtime rt(std::move(cfg));
  std::vector<SharedRef<std::uint64_t>> objs;
  for (int i = 0; i < p.objects; ++i)
    objs.push_back(rt.alloc<std::uint64_t>(2, "o" + std::to_string(i)));
  rt.run([&](TaskContext& ctx) {
    for (const auto& ts : p.tasks) emit_task(ctx, ts, objs);
  });
  std::vector<std::uint64_t> out;
  for (auto& o : objs) {
    auto v = rt.get(o);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

RuntimeConfig serial_cfg() { return RuntimeConfig{}; }

RuntimeConfig thread_cfg(int threads, bool throttle = false) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = threads;
  if (throttle) {
    cfg.sched.throttle.enabled = true;
    cfg.sched.throttle.high_water = 5;
    cfg.sched.throttle.low_water = 2;
  }
  return cfg;
}

/// ThreadEngine on 1, 2, 4 and 8 workers with speculation off and on.  It
/// grants a held right without its lock only while speculation is off;
/// with it on, every access takes the locked path.
std::vector<RuntimeConfig> thread_access_paths() {
  std::vector<RuntimeConfig> out;
  for (int threads : {1, 2, 4, 8}) {
    for (bool spec : {false, true}) {
      RuntimeConfig cfg = thread_cfg(threads);
      cfg.sched.spec.enabled = spec;
      out.push_back(cfg);
    }
  }
  return out;
}

RuntimeConfig sim_cfg(ClusterConfig cluster, SchedPolicy sched = {}) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = std::move(cluster);
  cfg.sched = sched;
  return cfg;
}

class DeterminismExtTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismExtTest, AllEnginesMatchSerial) {
  const auto p = generate(GetParam(), 7, 70);
  const auto serial = run_program(p, serial_cfg());
  for (int threads : {1, 3, 8})
    EXPECT_EQ(run_program(p, thread_cfg(threads)), serial)
        << "threads=" << threads;
  EXPECT_EQ(run_program(p, thread_cfg(4, /*throttle=*/true)), serial);
  EXPECT_EQ(run_program(p, sim_cfg(presets::dash(4))), serial);
  EXPECT_EQ(run_program(p, sim_cfg(presets::mica(4))), serial);
  EXPECT_EQ(run_program(p, sim_cfg(presets::ipsc860(8))), serial);
  EXPECT_EQ(run_program(p, sim_cfg(presets::hetero_workstations(3))),
            serial);
  EXPECT_EQ(run_program(p, sim_cfg(presets::hrv(3))), serial);
}

TEST_P(DeterminismExtTest, ThreadEngineMatchesSerialOnEveryAccessPath) {
  // Parents that reacquire after their children, deferred rights converted
  // and then accessed, and commuters, on the lock-free grant and on the
  // locked path.
  const auto p = generate(GetParam() ^ 0x10cdULL, 6, 60);
  const auto serial = run_program(p, serial_cfg());
  for (const RuntimeConfig& cfg : thread_access_paths())
    EXPECT_EQ(run_program(p, cfg), serial)
        << "threads=" << cfg.threads << " spec=" << cfg.sched.spec.enabled;
}

TEST_P(DeterminismExtTest, SchedulingPoliciesIrrelevantToResult) {
  const auto p = generate(GetParam() ^ 0xfeedULL, 5, 50);
  const auto serial = run_program(p, serial_cfg());
  for (int contexts : {1, 3}) {
    for (bool locality : {false, true}) {
      SchedPolicy sched;
      sched.contexts_per_machine = contexts;
      sched.locality = locality;
      EXPECT_EQ(run_program(p, sim_cfg(presets::mica(3), sched)), serial)
          << "contexts=" << contexts << " locality=" << locality;
    }
  }
  SchedPolicy throttled;
  throttled.throttle.enabled = true;
  throttled.throttle.high_water = 4;
  throttled.throttle.low_water = 2;
  EXPECT_EQ(run_program(p, sim_cfg(presets::ipsc860(4), throttled)), serial);
}

TEST_P(DeterminismExtTest, RepeatedRunsIdenticalIncludingVirtualTime) {
  const auto p = generate(GetParam() * 31 + 7, 6, 40);
  auto once = [&] {
    Runtime rt(sim_cfg(presets::hetero_workstations(4)));
    std::vector<SharedRef<std::uint64_t>> objs;
    for (int i = 0; i < p.objects; ++i)
      objs.push_back(rt.alloc<std::uint64_t>(2));
    rt.run([&](TaskContext& ctx) {
      for (const auto& ts : p.tasks) emit_task(ctx, ts, objs);
    });
    return std::pair{rt.sim_duration(), rt.stats().bytes_sent};
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

/// Ways a task body can exercise a right it does not hold immediately.
enum class Misuse {
  kCommuteUnderRdWr,
  kDeferred,
  kRetiredWrite,
  kRetiredObject,
  kNeverDeclared,
};

/// The error a program raises, as (type, message); empty when it runs
/// clean.  A writer ahead of the offending task gives the speculative
/// configurations a bet to place.
std::pair<std::string, std::string> access_error(Misuse misuse,
                                                 RuntimeConfig cfg) {
  Runtime rt(std::move(cfg));
  auto a = rt.alloc<std::uint64_t>(2, "a");
  auto b = rt.alloc<std::uint64_t>(2, "b");
  auto c = rt.alloc<std::uint64_t>(2, "c");
  const auto body = [a, b, c, misuse](TaskContext& t) {
    switch (misuse) {
      case Misuse::kCommuteUnderRdWr:
        t.commute(a)[0] += 1;
        break;
      case Misuse::kDeferred:
        (void)t.read(b)[0];
        break;
      case Misuse::kRetiredWrite:
        t.read_write(a)[0] += 1;
        t.with_cont([&](AccessDecl& d) { d.no_wr(a); });
        (void)t.read(a)[0];
        t.write(a)[0] = 7;
        break;
      case Misuse::kRetiredObject:
        t.with_cont([&](AccessDecl& d) { d.no_rd(b); });
        (void)t.read(b)[0];
        break;
      case Misuse::kNeverDeclared:
        (void)t.read(c)[0];
        break;
    }
  };
  try {
    rt.run([&](TaskContext& ctx) {
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(a);
            d.rd_wr(b);
          },
          [a, b](TaskContext& t) {
            t.read_write(a)[0] += 1;
            t.read_write(b)[0] += 1;
          });
      ctx.withonly(
          [&](AccessDecl& d) {
            d.rd_wr(a);
            d.df_rd(b);
          },
          body);
    });
  } catch (const UndeclaredAccessError& e) {
    return {"UndeclaredAccessError", e.what()};
  } catch (const std::exception& e) {
    return {"other", e.what()};
  }
  return {};
}

TEST(AccessErrors, EveryAccessPathRaisesTheLockedPathsError) {
  // An access that is not a held right must miss the lock-free grant and
  // raise exactly the locked check's error.
  for (Misuse misuse :
       {Misuse::kCommuteUnderRdWr, Misuse::kDeferred, Misuse::kRetiredWrite,
        Misuse::kRetiredObject, Misuse::kNeverDeclared}) {
    const auto expect = access_error(misuse, serial_cfg());
    EXPECT_EQ(expect.first, "UndeclaredAccessError")
        << "misuse " << static_cast<int>(misuse);
    for (const RuntimeConfig& cfg : thread_access_paths())
      EXPECT_EQ(access_error(misuse, cfg), expect)
          << "misuse " << static_cast<int>(misuse) << " threads="
          << cfg.threads << " spec=" << cfg.sched.spec.enabled;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismExtTest,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull,
                                           0xabcdefull));

}  // namespace
}  // namespace jade
