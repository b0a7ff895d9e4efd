// Stress and property tests for the discrete-event kernel: heavy process
// churn (fiber recycling), randomized timer programs checked against a
// host-side model, and producer/consumer chains through park/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "jade/sim/simulation.hpp"
#include "jade/support/rng.hpp"

namespace jade {
namespace {

TEST(SimStress, ThousandsOfShortLivedProcesses) {
  // One process per "task", like SimEngine under a large program; finished
  // processes must hand their fibers back, not accumulate stacks.
  Simulation sim;
  int completed = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.spawn_at(i * 1e-6, "p" + std::to_string(i), [&sim, &completed] {
      sim.advance(5e-6);
      ++completed;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 5000);
  EXPECT_NEAR(sim.now(), 5000 * 1e-6 + 4e-6, 1e-9);
}

TEST(SimStress, RandomTimerProgramMatchesModel) {
  // Processes advance by random delays; the wake sequence must equal the
  // host-computed sorted (time, spawn-order) sequence.
  for (std::uint64_t seed : {1ull, 9ull, 77ull}) {
    Rng rng(seed);
    const int procs = 40;
    const int hops = 8;
    // Model: absolute wake times per process.
    std::vector<std::vector<double>> wakes(procs);
    for (int p = 0; p < procs; ++p) {
      double t = 0;
      for (int h = 0; h < hops; ++h) {
        t += 1e-3 * static_cast<double>(1 + rng.next_below(1000));
        wakes[p].push_back(t);
      }
    }
    std::vector<std::pair<double, int>> expected;
    for (int p = 0; p < procs; ++p)
      for (double t : wakes[p]) expected.push_back({t, p});
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    Simulation sim;
    std::vector<std::pair<double, int>> observed;
    for (int p = 0; p < procs; ++p) {
      sim.spawn("p" + std::to_string(p), [&sim, &observed, &wakes, p] {
        double prev = 0;
        for (double t : wakes[p]) {
          sim.advance(t - prev);
          prev = t;
          observed.push_back({sim.now(), p});
        }
      });
    }
    sim.run();
    ASSERT_EQ(observed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(observed[i].first, expected[i].first) << i;
      // Ties: identical wake times fire in schedule order, which for equal
      // times equals spawn order here.
      if (observed[i].first != expected[i].first) break;
    }
  }
}

TEST(SimStress, PingPongParkResumeChain) {
  // Two processes hand control back and forth 500 times through the
  // park/resume protocol (the same mechanism SimEngine tasks block with).
  Simulation sim;
  int pongs = 0;
  const int rounds = 500;
  Process* ping = nullptr;
  Process* pong = nullptr;
  pong = sim.spawn("pong", [&] {
    for (int r = 0; r < rounds; ++r) {
      sim.park();  // wait for ping
      ++pongs;
      sim.resume(ping);
    }
  });
  ping = sim.spawn("ping", [&] {
    for (int r = 0; r < rounds; ++r) {
      sim.resume(pong);  // pong spawned first and is parked
      sim.park();        // wait for the reply
    }
  });
  sim.run();
  EXPECT_EQ(pongs, rounds);
}

TEST(SimStress, InterleavedEventsAndProcesses) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(0.5, [&] { order.push_back(-1); });
  sim.schedule(1.5, [&] { order.push_back(-2); });
  sim.spawn("p", [&] {
    order.push_back(1);
    sim.advance(1.0);
    order.push_back(2);
    sim.advance(1.0);
    order.push_back(3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2, -2, 3}));
}

TEST(SimStress, DeterministicAcrossRepetitions) {
  auto run_once = [] {
    Simulation sim;
    Rng rng(404);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      const double delay = 1e-4 * static_cast<double>(rng.next_below(50));
      sim.spawn("p" + std::to_string(i), [&sim, &order, delay, i] {
        sim.advance(delay);
        order.push_back(i);
        sim.advance(delay);
        order.push_back(100 + i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace jade
