// Tests for the discrete-event kernel: event ordering, virtual time,
// cooperative processes, determinism and deadlock detection.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "jade/sim/event_queue.hpp"
#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeAndClear) {
  EventQueue q;
  q.schedule(2.5, [] {});
  q.schedule(1.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.5);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, EventsAdvanceClock) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.schedule(1.0, [&] { seen.push_back(sim.now()); });
  sim.schedule(2.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule(5.0, [&] {
    EXPECT_THROW(sim.schedule(1.0, [] {}), InternalError);
  });
  sim.run();
}

TEST(Simulation, ProcessRunsAndAdvances) {
  Simulation sim;
  std::vector<SimTime> marks;
  sim.spawn("p", [&] {
    marks.push_back(sim.now());
    sim.advance(1.5);
    marks.push_back(sim.now());
    sim.advance(0.5);
    marks.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(marks, (std::vector<SimTime>{0.0, 1.5, 2.0}));
}

TEST(Simulation, TwoProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    log.push_back("a0");
    sim.advance(2.0);
    log.push_back("a2");
  });
  sim.spawn("b", [&] {
    log.push_back("b0");
    sim.advance(1.0);
    log.push_back("b1");
    sim.advance(2.0);
    log.push_back("b3");
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
}

TEST(Simulation, ParkResumeHandshake) {
  Simulation sim;
  std::vector<std::string> log;
  Process* waiter = sim.spawn("waiter", [&] {
    log.push_back("wait");
    sim.park();
    log.push_back("woke at " + std::to_string(static_cast<int>(sim.now())));
  });
  sim.schedule(3.0, [&] { sim.resume(waiter); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"wait", "woke at 3"}));
}

TEST(Simulation, ProcessResumesAnotherProcess) {
  Simulation sim;
  std::vector<std::string> log;
  Process* consumer = sim.spawn("consumer", [&] {
    sim.park();
    log.push_back("consumed");
  });
  sim.spawn("producer", [&] {
    sim.advance(1.0);
    log.push_back("produced");
    sim.resume(consumer);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"produced", "consumed"}));
}

TEST(Simulation, SpawnFromWithinProcess) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&] {
    log.push_back("parent");
    sim.spawn("child", [&] { log.push_back("child"); });
    sim.advance(1.0);
    log.push_back("parent-later");
  });
  sim.run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"parent", "child", "parent-later"}));
}

TEST(Simulation, SpawnAtFutureTime) {
  Simulation sim;
  SimTime started = -1;
  sim.spawn_at(4.0, "late", [&] { started = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(started, 4.0);
}

TEST(Simulation, StalledProcessesDetected) {
  Simulation sim;
  sim.spawn("stuck", [&] { sim.park(); });  // nobody will resume it
  EXPECT_THROW(sim.run(), InternalError);
}

TEST(Simulation, ExceptionInProcessPropagates) {
  Simulation sim;
  sim.spawn("bomb", [&] { throw std::runtime_error("bang"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, ExceptionTeardownUnwindsOtherProcesses) {
  Simulation sim;
  bool cleaned = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  sim.spawn("victim", [&] {
    Sentinel s{&cleaned};
    sim.park();  // never resumed; must unwind at destruction
  });
  sim.spawn("bomb", [&] {
    sim.advance(1.0);
    throw std::runtime_error("bang");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  // Destructor of sim unwinds the parked process cooperatively.
}

TEST(Simulation, ManyProcessesDeterministicOrder) {
  auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.spawn("p" + std::to_string(i), [&sim, &order, i] {
        sim.advance((i % 7) * 0.25);
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, EventsExecutedCount) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, AdvanceZeroIsImmediateButYields) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    log.push_back("a-pre");
    sim.advance(0.0);
    log.push_back("a-post");
  });
  sim.spawn("b", [&] { log.push_back("b"); });
  sim.run();
  // advance(0) reschedules at the same time, behind b's start event.
  EXPECT_EQ(log, (std::vector<std::string>{"a-pre", "b", "a-post"}));
}

TEST(Simulation, DrainedRunsFreeEveryFinishedProcess) {
  // SimEngine keeps one Simulation for the engine's whole life and runs it
  // once per program, so finished processes must not pile up across runs.
  Simulation sim;
  int finished = 0;
  for (int run = 0; run < 200; ++run) {
    for (int i = 0; i < 48; ++i) {
      sim.spawn("short", [&sim, &finished, i] {
        sim.advance((i % 5) * 1e-3);
        ++finished;
      });
    }
    // An aborted process whose resume is still queued: the resume pops
    // after the abort and must find the process alive.
    Process* victim = sim.spawn("victim", [&sim] { sim.advance(1.0); });
    sim.spawn("killer", [&sim, victim] {
      sim.advance(0.5);
      sim.abort(victim);
    });
    sim.run();
    EXPECT_EQ(sim.process_count(), 0u) << "after run " << run;
  }
  EXPECT_EQ(finished, 200 * 48);
}

TEST(Simulation, EachProcessRethrowsItsOwnException) {
  // Both processes park inside a catch block, so both exceptions are in
  // flight at once; each `throw;` must rethrow the process's own.
  Simulation sim;
  std::string a_saw, b_saw;
  auto body = [&sim](const char* mine, std::string* saw) {
    return [&sim, mine, saw] {
      try {
        throw std::runtime_error(mine);
      } catch (...) {
        sim.advance(1.0);
        try {
          throw;
        } catch (const std::runtime_error& e) {
          *saw = e.what();
        }
      }
    };
  };
  sim.spawn("a", body("A", &a_saw));
  sim.spawn("b", body("B", &b_saw));
  sim.run();
  EXPECT_EQ(a_saw, "A");
  EXPECT_EQ(b_saw, "B");
}

// A value on the parked process's stack that the overflowing process must
// never reach.
volatile std::uint64_t* parked_canary = nullptr;
constexpr std::uint64_t kCanary = 0x5ca1ab1e5ca1ab1eULL;

// Recurses, filling a 4 KiB frame per level, until `stop` (never, here).
int recurse_deeply(int depth, int stop) {
  volatile char frame[4096];
  for (volatile char& c : frame) c = static_cast<char>(depth);
  if (depth == stop) return frame[0];
  return recurse_deeply(depth + 1, stop) + frame[0];
}

// Runs on an alternate stack when the overflow faults.  An intact canary
// restores the default action, so the fault repeats and kills the process;
// a clobbered one exits cleanly, which EXPECT_DEATH reports as a failure.
void check_canary_on_fault(int) {
  if (*parked_canary != kCanary) _exit(0);
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  sigaction(SIGSEGV, &dfl, nullptr);
}

TEST(SimulationDeathTest, StackOverflowHitsTheGuardPage) {
  // "deep" borrows its fiber first, so mmap usually places its stack just
  // above the one "parked" borrows next; an overflow must fault on the
  // guard between them instead of running on into the parked frames.
  EXPECT_DEATH(
      {
        static char alt_stack[1 << 16];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof alt_stack;
        sigaltstack(&ss, nullptr);
        struct sigaction on_fault = {};
        on_fault.sa_handler = check_canary_on_fault;
        on_fault.sa_flags = SA_ONSTACK;
        sigaction(SIGSEGV, &on_fault, nullptr);

        Simulation sim;
        sim.spawn("deep", [&sim] {
          sim.advance(0.5);
          recurse_deeply(0, std::numeric_limits<int>::max());
        });
        sim.spawn("parked", [&sim] {
          volatile std::uint64_t canary = kCanary;
          parked_canary = &canary;
          sim.advance(1.0);
        });
        sim.run();
      },
      "");
}

}  // namespace
}  // namespace jade
