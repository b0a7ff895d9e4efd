// JadeServer: session lifecycle, tenant isolation, admission control,
// forced teardown, failure containment, and batch-mode determinism —
// thousands of independent Jade programs multiplexed onto one engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "bounded_wait.hpp"
#include "jade/mach/presets.hpp"
#include "jade/server/server.hpp"
#include "thread_count.hpp"

namespace jade {
namespace {

using server::Admission;
using server::AdmissionConfig;
using server::AdmissionController;
using server::JadeServer;
using server::ServerConfig;
using server::Session;
using server::SessionOptions;
using server::SessionState;

ServerConfig thread_config(int threads = 3) {
  ServerConfig cfg;
  cfg.runtime.engine = EngineKind::kThread;
  cfg.runtime.threads = threads;
  return cfg;
}

ServerConfig batch_config(EngineKind kind) {
  ServerConfig cfg;
  cfg.runtime.engine = kind;
  if (kind == EngineKind::kSim) cfg.runtime.cluster = presets::ideal(3);
  return cfg;
}

/// A tenant program: `tasks` children each add their index into a
/// per-session accumulator; result is the triangular sum.
void submit_sum(const std::shared_ptr<Session>& s,
                const SharedRef<std::uint64_t>& acc, int tasks) {
  s->submit([acc, tasks](TaskContext& ctx) {
    for (int i = 0; i < tasks; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(acc); },
                   [acc, i](TaskContext& t) {
                     t.read_write(acc)[0] += static_cast<std::uint64_t>(i);
                   });
    }
  });
}

std::uint64_t triangle(int n) {
  return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
}

TEST(ServerLifecycle, SessionsRunConcurrentlyAndIndependently) {
  JadeServer server(thread_config());
  constexpr int kSessions = 16;
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<SharedRef<std::uint64_t>> accs;
  for (int i = 0; i < kSessions; ++i) {
    auto s = server.open_session("t" + std::to_string(i));
    ASSERT_NE(s, nullptr);
    accs.push_back(s->alloc<std::uint64_t>(1, "acc"));
    sessions.push_back(std::move(s));
  }
  for (int i = 0; i < kSessions; ++i)
    submit_sum(sessions[static_cast<std::size_t>(i)],
               accs[static_cast<std::size_t>(i)], 10 + i);
  for (int i = 0; i < kSessions; ++i) {
    auto& s = sessions[static_cast<std::size_t>(i)];
    EXPECT_EQ(s->wait(), SessionState::kCompleted);
    EXPECT_EQ(s->get(accs[static_cast<std::size_t>(i)])[0], triangle(10 + i));
    const auto stats = s->stats();
    EXPECT_EQ(stats.tasks_created, static_cast<std::uint64_t>(10 + i) + 1);
    EXPECT_EQ(stats.tasks_completed, stats.tasks_created);
    EXPECT_GE(stats.latency_seconds, 0.0);
    s->close();
  }
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerIsolation, CrossTenantDeclarationFailsOnlyThatSession) {
  JadeServer server(thread_config());
  auto a = server.open_session("a");
  auto b = server.open_session("b");
  auto c = server.open_session("c");
  auto acc_a = a->alloc<std::uint64_t>(1, "acc");
  auto acc_c = c->alloc<std::uint64_t>(1, "acc");
  submit_sum(a, acc_a, 8);
  // b declares a's object: the serializer rejects it at task creation,
  // which fails b's root body — and nothing else.
  b->submit([acc_a](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(acc_a); },
                 [acc_a](TaskContext& t) { t.read_write(acc_a)[0] = 999; });
  });
  submit_sum(c, acc_c, 8);
  EXPECT_EQ(b->wait(), SessionState::kFailed);
  EXPECT_THROW(b->rethrow_failure(), TenantIsolationError);
  EXPECT_EQ(a->wait(), SessionState::kCompleted);
  EXPECT_EQ(c->wait(), SessionState::kCompleted);
  EXPECT_EQ(a->get(acc_a)[0], triangle(8));
  EXPECT_EQ(c->get(acc_c)[0], triangle(8));
  a->close();
  b->close();
  c->close();
}

TEST(ServerIsolation, HostSideAccessToForeignObjectRejected) {
  JadeServer server(thread_config());
  auto a = server.open_session("a");
  auto b = server.open_session("b");
  auto obj = a->alloc<std::uint64_t>(4, "data");
  EXPECT_THROW(b->get(obj), TenantIsolationError);
  const std::vector<std::uint64_t> data(4, 7);
  EXPECT_THROW(b->put(obj, std::span<const std::uint64_t>(data)),
               TenantIsolationError);
  EXPECT_NO_THROW(a->put(obj, std::span<const std::uint64_t>(data)));
  EXPECT_EQ(a->get(obj)[0], 7u);
}

TEST(ServerAdmission, QueuesPromotesAndRejects) {
  ServerConfig cfg = thread_config(2);
  cfg.admission.max_active_sessions = 2;
  cfg.admission.max_queued_sessions = 2;
  JadeServer server(cfg);
  auto s1 = server.open_session("s1");
  auto s2 = server.open_session("s2");
  auto s3 = server.open_session("s3");
  auto s4 = server.open_session("s4");
  ASSERT_NE(s3, nullptr);
  ASSERT_NE(s4, nullptr);
  EXPECT_EQ(s3->state(), SessionState::kQueued);
  EXPECT_EQ(s4->state(), SessionState::kQueued);
  // Queue full: the fifth arrival is rejected, not parked.
  EXPECT_EQ(server.open_session("s5"), nullptr);
  EXPECT_EQ(server.active_sessions(), 2u);
  EXPECT_EQ(server.queued_sessions(), 2u);

  // A queued session can submit; the body launches on promotion.
  auto acc3 = s3->alloc<std::uint64_t>(1, "acc");
  submit_sum(s3, acc3, 6);
  auto acc1 = s1->alloc<std::uint64_t>(1, "acc");
  submit_sum(s1, acc1, 6);
  EXPECT_EQ(s1->wait(), SessionState::kCompleted);
  s1->close();  // frees a slot: s3 promotes and runs
  EXPECT_EQ(s3->wait(), SessionState::kCompleted);
  EXPECT_EQ(s3->get(acc3)[0], triangle(6));
  s2->cancel();
  s3->close();
  s4->cancel();
  EXPECT_EQ(s4->wait(), SessionState::kCancelled);
}

TEST(ServerAdmission, ByteBudgetGatesAdmission) {
  AdmissionController ctl(AdmissionConfig{4, 4, 1000});
  EXPECT_EQ(ctl.decide(600), Admission::kAdmit);
  ctl.admit(600);
  EXPECT_EQ(ctl.decide(600), Admission::kQueue);  // 1200 > 1000
  EXPECT_EQ(ctl.decide(300), Admission::kAdmit);
  EXPECT_EQ(ctl.decide(2000), Admission::kReject);  // can never fit
  ctl.release(600);
  EXPECT_EQ(ctl.decide(600), Admission::kAdmit);
}

TEST(ServerTeardown, ForcedTeardownMidRunLeavesEngineServing) {
  ServerConfig cfg = thread_config(3);
  cfg.quota_pool = 32;  // backpressure so the victim cannot flood the engine
  JadeServer server(cfg);
  auto victim = server.open_session("victim");
  auto bystander = server.open_session("bystander");
  auto acc_b = bystander->alloc<std::uint64_t>(1, "acc");
  std::atomic<bool> started{false};
  TenantCtl* ctl = &victim->ctl();
  victim->submit([&started, ctl](TaskContext& ctx) {
    for (int i = 0;
         i < 50'000'000 && !ctl->cancelled.load(std::memory_order_relaxed);
         ++i) {
      ctx.withonly([](AccessDecl&) {},
                   [&started](TaskContext&) {
                     started.store(true, std::memory_order_release);
                   });
    }
  });
  submit_sum(bystander, acc_b, 32);
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  victim->cancel();
  EXPECT_EQ(victim->wait(), SessionState::kCancelled);
  EXPECT_EQ(bystander->wait(), SessionState::kCompleted);
  EXPECT_EQ(bystander->get(acc_b)[0], triangle(32));
  const auto vstats = victim->stats();
  EXPECT_EQ(vstats.tasks_completed, vstats.tasks_created);
  victim->close();
  bystander->close();
  // The engine keeps serving follow-up tenants after the teardown.
  auto after = server.open_session("after");
  auto acc = after->alloc<std::uint64_t>(1, "acc");
  submit_sum(after, acc, 12);
  EXPECT_EQ(after->wait(), SessionState::kCompleted);
  EXPECT_EQ(after->get(acc)[0], triangle(12));
  after->close();
}

TEST(ServerFailure, BodyExceptionContainedToItsSession) {
  JadeServer server(thread_config());
  auto bad = server.open_session("bad");
  auto good = server.open_session("good");
  auto acc = good->alloc<std::uint64_t>(1, "acc");
  bad->submit([](TaskContext& ctx) {
    ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {
      throw std::runtime_error("tenant bug");
    });
  });
  submit_sum(good, acc, 20);
  EXPECT_EQ(bad->wait(), SessionState::kFailed);
  EXPECT_THROW(bad->rethrow_failure(), std::runtime_error);
  EXPECT_EQ(good->wait(), SessionState::kCompleted);
  EXPECT_EQ(good->get(acc)[0], triangle(20));
  bad->close();
  good->close();
}

TEST(ServerMetrics, TenantNamespacedCountersPublished) {
  JadeServer server(thread_config());
  auto s = server.open_session("metered");
  auto acc = s->alloc<std::uint64_t>(1, "acc");
  submit_sum(s, acc, 5);
  EXPECT_EQ(s->wait(), SessionState::kCompleted);
  const std::string prefix = "tenant." + std::to_string(s->id()) + ".";
  obs::MetricsRegistry& reg = server.metrics();
  ASSERT_TRUE(reg.has(prefix + "tasks_created"));
  EXPECT_EQ(reg.counter(prefix + "tasks_created").value(), 6u);
  EXPECT_EQ(reg.counter(prefix + "tasks_completed").value(), 6u);
  EXPECT_EQ(reg.counter(prefix + "tasks_cancelled").value(), 0u);
  EXPECT_EQ(reg.counter("server.sessions_completed").value(), 1u);
  EXPECT_EQ(reg.histogram("server.session_latency").count(), 1u);
  s->close();
}

// The throttle give-up holds in a live server too.  A task takes a commute
// token, then creates children that all need it; with a quota window of 4
// the task is gated while it holds the token its children wait for.  Only
// giving up the gate lets it finish.  The server's root thread (the
// dispatcher, waiting for submissions outside the engine) cannot run
// engine work, so the give-up must not wait for it to go idle.
TEST(ServerQuota, GatedCreatorHoldingItsChildrensTokenGivesUp) {
  run_bounded("gated creator in a live server", [] {
    ServerConfig cfg = thread_config(2);
    cfg.quota_pool = 4;
    JadeServer server(cfg);
    auto s = server.open_session("holder");
    auto ctr = s->alloc<std::int64_t>(1, "ctr");
    s->submit([ctr](TaskContext& ctx) {
      ctx.withonly([&](AccessDecl& d) { d.cm(ctr); },
                   [ctr](TaskContext& t) {
                     t.commute(ctr)[0] += 1;
                     for (int i = 0; i < 10; ++i)
                       t.withonly([&](AccessDecl& d) { d.cm(ctr); },
                                  [ctr](TaskContext& c) {
                                    c.commute(ctr)[0] += 1;
                                  });
                   });
    });
    EXPECT_EQ(s->wait(), SessionState::kCompleted);
    EXPECT_EQ(s->get(ctr)[0], 11);
    s->close();
    server.stop();
    EXPECT_GE(server.runtime().stats().throttle_giveups, 1u);
  });
}

// Churn shaped like bench_server_churn's: short programs of 8 commuting
// increments through a 256-slot window with a quota pool, on 4 workers.
// Gated creators and token waiters park their fibers, so the server runs on
// its dispatcher and the workers and starts no other thread.
TEST(ServerThreads, ChurnStaysOnDispatcherAndWorkers) {
  constexpr int kWorkers = 4;
  constexpr int kSessions = 500;
  constexpr std::size_t kOutstanding = 512;
  const int before = process_threads();
  int peak = before;
  ServerConfig cfg = thread_config(kWorkers);
  cfg.admission.max_active_sessions = 256;
  cfg.admission.max_queued_sessions = 2048;
  cfg.quota_pool = 2048;
  JadeServer server(cfg);
  struct InFlight {
    std::shared_ptr<Session> session;
    SharedRef<std::int64_t> counter;
  };
  std::deque<InFlight> outstanding;
  const auto retire_front = [&] {
    InFlight f = std::move(outstanding.front());
    outstanding.pop_front();
    EXPECT_EQ(f.session->wait(), SessionState::kCompleted);
    EXPECT_EQ(f.session->get(f.counter)[0], 8);
    f.session->close();
  };
  for (int i = 0; i < kSessions; ++i) {
    if (outstanding.size() >= kOutstanding) retire_front();
    auto s = server.open_session("churn" + std::to_string(i));
    ASSERT_NE(s, nullptr);
    auto ctr = s->alloc<std::int64_t>(1, "ctr");
    s->submit([ctr](TaskContext& ctx) {
      for (int k = 0; k < 8; ++k)
        ctx.withonly([&](AccessDecl& d) { d.cm(ctr); },
                     [ctr](TaskContext& t) { t.commute(ctr)[0] += 1; });
    });
    outstanding.push_back({std::move(s), ctr});
    peak = std::max(peak, process_threads());
  }
  while (!outstanding.empty()) {
    retire_front();
    peak = std::max(peak, process_threads());
  }
  EXPECT_LE(peak, before + kWorkers + 1);
}

class BatchServerTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BatchServerTest, DrainRunsPendingGraphsToQuiescence) {
  JadeServer server(batch_config(GetParam()));
  auto a = server.open_session("a");
  auto b = server.open_session("b");
  auto acc_a = a->alloc<std::uint64_t>(1, "acc");
  auto acc_b = b->alloc<std::uint64_t>(1, "acc");
  submit_sum(a, acc_a, 10);
  submit_sum(b, acc_b, 20);
  EXPECT_EQ(a->state(), SessionState::kRunning);
  server.drain();
  EXPECT_EQ(a->wait(), SessionState::kCompleted);
  EXPECT_EQ(b->wait(), SessionState::kCompleted);
  EXPECT_EQ(a->get(acc_a)[0], triangle(10));
  EXPECT_EQ(b->get(acc_b)[0], triangle(20));
  a->close();
  b->close();
  // A second wave reuses the engine.
  auto c = server.open_session("c");
  auto acc_c = c->alloc<std::uint64_t>(1, "acc");
  submit_sum(c, acc_c, 30);
  server.drain();
  EXPECT_EQ(c->wait(), SessionState::kCompleted);
  EXPECT_EQ(c->get(acc_c)[0], triangle(30));
  c->close();
}

INSTANTIATE_TEST_SUITE_P(BatchEngines, BatchServerTest,
                         ::testing::Values(EngineKind::kSerial,
                                           EngineKind::kSim),
                         [](const auto& info) {
                           return info.param == EngineKind::kSerial ? "Serial"
                                                                    : "Sim";
                         });

TEST(BatchServer, SimDrainDeterministic) {
  auto run_once = [] {
    JadeServer server(batch_config(EngineKind::kSim));
    std::vector<std::uint64_t> out;
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<SharedRef<std::uint64_t>> accs;
    for (int i = 0; i < 6; ++i) {
      auto s = server.open_session("t" + std::to_string(i));
      accs.push_back(s->alloc<std::uint64_t>(1, "acc"));
      sessions.push_back(std::move(s));
    }
    for (int i = 0; i < 6; ++i)
      submit_sum(sessions[static_cast<std::size_t>(i)],
                 accs[static_cast<std::size_t>(i)], 4 + i);
    server.drain();
    for (int i = 0; i < 6; ++i) {
      out.push_back(sessions[static_cast<std::size_t>(i)]
                        ->get(accs[static_cast<std::size_t>(i)])[0]);
    }
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ServerStop, QueuedAndUnlaunchedSessionsCancelled) {
  ServerConfig cfg = thread_config(2);
  cfg.admission.max_active_sessions = 1;
  JadeServer server(cfg);
  auto active = server.open_session("active");
  auto queued = server.open_session("queued");
  EXPECT_EQ(queued->state(), SessionState::kQueued);
  server.stop();
  EXPECT_EQ(queued->wait(), SessionState::kCancelled);
  EXPECT_EQ(server.open_session("late"), nullptr);
  active->cancel();
  EXPECT_EQ(active->wait(), SessionState::kCancelled);
}

}  // namespace
}  // namespace jade
