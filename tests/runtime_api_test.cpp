// API-surface tests for the Runtime front end: typed allocation and host
// I/O, stats reporting, machine introspection, and trace logging.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/log.hpp"

namespace jade {
namespace {

TEST(RuntimeApi, TypedAllocationRoundTripsAllScalars) {
  Runtime rt;
  auto check = [&](auto value, std::size_t count) {
    using T = decltype(value);
    std::vector<T> data(count);
    for (std::size_t i = 0; i < count; ++i)
      data[i] = static_cast<T>(value + static_cast<T>(i));
    auto ref = rt.alloc_init<T>(data);
    EXPECT_EQ(ref.count(), count);
    EXPECT_EQ(ref.byte_size(), count * sizeof(T));
    EXPECT_EQ(rt.get(ref), data);
  };
  check(std::int8_t{1}, 5);
  check(std::uint16_t{1000}, 9);
  check(std::int32_t{-7}, 3);
  check(std::uint64_t{1} << 40, 4);
  check(2.5f, 6);
  check(3.25, 8);
}

TEST(RuntimeApi, ObjectInfoCarriesNameAndType) {
  Runtime rt;
  auto v = rt.alloc<double>(12, "velocity");
  const ObjectInfo& info = rt.engine().object_info(v.id());
  EXPECT_EQ(info.name, "velocity");
  EXPECT_EQ(info.byte_size(), 96u);
  EXPECT_FALSE(info.type.order_invariant());
  auto anon = rt.alloc<int>(1);
  EXPECT_NE(rt.engine().object_info(anon.id()).name, "");  // auto-named
}

TEST(RuntimeApi, ZeroInitializedAllocation) {
  Runtime rt;
  auto v = rt.alloc<std::int64_t>(16);
  for (auto x : rt.get(v)) EXPECT_EQ(x, 0);
}

TEST(RuntimeApi, StatsCountTasksPerEngine) {
  for (EngineKind kind :
       {EngineKind::kSerial, EngineKind::kThread, EngineKind::kSim}) {
    RuntimeConfig cfg;
    cfg.engine = kind;
    if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(2);
    Runtime rt(std::move(cfg));
    auto v = rt.alloc<int>(1);
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < 5; ++i)
        ctx.withonly([&](AccessDecl& d) { d.cm(v); },
                     [v](TaskContext& t) { t.commute(v)[0] += 1; });
    });
    EXPECT_EQ(rt.stats().tasks_created, 5u);
    if (kind == EngineKind::kSim) {
      EXPECT_GT(rt.sim_duration(), 0.0);
    } else {
      EXPECT_EQ(rt.sim_duration(), 0.0);
    }
  }
}

TEST(RuntimeApi, MachineIntrospectionInsideTasks) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ideal(5);
  Runtime rt(std::move(cfg));
  auto v = rt.alloc<int>(1);
  int machines_seen = -1;
  MachineId where = -1;
  rt.run([&](TaskContext& ctx) {
    EXPECT_EQ(ctx.machine(), 0);  // the original task runs on machine 0
    ctx.withonly_on(3, [&](AccessDecl& d) { d.rd_wr(v); },
                    [&, v](TaskContext& t) {
                      machines_seen = t.machine_count();
                      where = t.machine();
                      t.read_write(v)[0] = 1;
                    });
  });
  EXPECT_EQ(machines_seen, 5);
  EXPECT_EQ(where, 3);
}

TEST(RuntimeApi, TraceLevelLogSinkReceivesSimEvents) {
  std::vector<std::string> lines;
  Log::set_level(LogLevel::kTrace);
  Log::set_sink([&](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });

  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ipsc860(2);
  Runtime rt(std::move(cfg));
  auto v = rt.alloc<double>(64, "v", 1);
  rt.run([&](TaskContext& ctx) {
    ctx.withonly_on(0, [&](AccessDecl& d) { d.rd_wr(v); },
                    [v](TaskContext& t) { t.read_write(v)[0] = 1; });
  });

  Log::set_level(LogLevel::kOff);
  Log::set_sink(nullptr);

  bool saw_dispatch = false, saw_move = false, saw_complete = false;
  for (const auto& l : lines) {
    if (l.find("dispatch") != std::string::npos) saw_dispatch = true;
    if (l.find("move v") != std::string::npos) saw_move = true;
    if (l.find("complete") != std::string::npos) saw_complete = true;
  }
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_move);  // v lived on machine 1, task pinned to machine 0
  EXPECT_TRUE(saw_complete);
}

TEST(RuntimeApi, TaskNamesAppearInAccessErrors) {
  Runtime rt;
  auto v = rt.alloc<double>(1, "v");
  try {
    rt.run([&](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.rd(v); },
                   [v](TaskContext& t) { t.write(v)[0] = 1; },
                   "scaler");
    });
    FAIL() << "expected UndeclaredAccessError";
  } catch (const UndeclaredAccessError& e) {
    EXPECT_NE(std::string(e.what()).find("scaler"), std::string::npos);
  }
}

TEST(RuntimeApi, ConfigAccessors) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 3;
  Runtime rt(std::move(cfg));
  EXPECT_EQ(rt.machine_count(), 3);
  EXPECT_EQ(rt.config().engine, EngineKind::kThread);
}

}  // namespace
}  // namespace jade
