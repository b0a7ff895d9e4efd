// Tests for the trace-derived task timeline (obs/timeline_view) and its
// renderers, on traced SimEngine runs.
#include <gtest/gtest.h>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/obs/timeline_view.hpp"

namespace jade {
namespace {

Runtime make_runtime(int machines = 2) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = presets::ipsc860(machines);
  cfg.obs.trace = true;
  return Runtime(std::move(cfg));
}

void run_sample(Runtime& rt, int tasks = 6) {
  std::vector<SharedRef<double>> objs;
  for (int i = 0; i < tasks; ++i) objs.push_back(rt.alloc<double>(256));
  rt.run([&](TaskContext& ctx) {
    for (auto o : objs) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(o); },
                   [o](TaskContext& t) {
                     t.charge(5e5);
                     t.read_write(o)[0] = 1.0;
                   });
    }
  });
}

std::vector<TaskTimeline> timeline(const Runtime& rt) {
  return obs::timeline_from_trace(rt.trace_events());
}

TEST(Timeline, RecordsOrderedPhasesPerTask) {
  Runtime rt = make_runtime();
  run_sample(rt, 6);
  const auto tl = timeline(rt);
  ASSERT_EQ(tl.size(), 7u);  // 6 tasks + root
  int real_tasks = 0;
  for (const auto& t : tl) {
    EXPECT_LE(t.created, t.dispatched);
    EXPECT_LE(t.dispatched, t.body_start);
    EXPECT_LE(t.body_start, t.completed);
    EXPECT_GE(t.machine, 0);
    if (t.task_id != 0) {
      ++real_tasks;
      EXPECT_GT(t.execution(), 0.0);  // each task charged work
      EXPECT_GE(t.fetch_wait(), 0.0);
    }
  }
  EXPECT_EQ(real_tasks, 6);
}

TEST(Timeline, GanttRendersAllMachines) {
  Runtime rt = make_runtime(3);
  run_sample(rt, 9);
  const std::string g = render_gantt(timeline(rt), 3, rt.sim_duration(), 40);
  EXPECT_NE(g.find("m0 |"), std::string::npos);
  EXPECT_NE(g.find("m2 |"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);  // someone executed something
}

TEST(Timeline, ResidencyBoundedByContextsAndPositive) {
  Runtime rt = make_runtime(2);  // default: 2 contexts per machine
  run_sample(rt, 8);
  const auto util = machine_utilization(timeline(rt), 2, rt.sim_duration());
  ASSERT_EQ(util.size(), 2u);
  for (double u : util) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 2.0 + 1e-9);  // residency, bounded by context count
  }
  // The CPU-busy fractions from RuntimeStats are genuine utilizations.
  for (double busy : rt.stats().machine_busy_seconds) {
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy / rt.sim_duration(), 1.0 + 1e-9);
  }
}

TEST(Timeline, QueueWaitGrowsWhenMachinesOversubscribed) {
  // 12 equal tasks on 1 machine: later tasks wait longer in the ready
  // queue than the first ones.
  Runtime rt = make_runtime(1);
  run_sample(rt, 12);
  SimTime first_wait = -1, last_wait = -1;
  for (const auto& t : timeline(rt)) {
    if (t.task_id == 1) first_wait = t.queue_wait();
    if (t.task_id == 12) last_wait = t.queue_wait();
  }
  ASSERT_GE(first_wait, 0.0);
  EXPECT_GT(last_wait, first_wait);
}

}  // namespace
}  // namespace jade
