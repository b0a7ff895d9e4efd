// JadeServer under sustained multi-tenant traffic.
//
// The paper's runtime serves one program per process; the server keeps one
// ThreadEngine resident and feeds it thousands of independent Jade programs.
// Three phases, each verified before it is recorded:
//
//   * concurrency_hold — opens and submits `--hold` sessions (default 1000)
//     whose graphs block on a host-side gate, proving the server sustains
//     that many concurrently live sessions on one engine, then releases the
//     gate and drains them all to kCompleted.
//
//   * churn — streams `--sessions` short programs (default 3000, 8
//     microtasks each) through a 256-slot admission window with a bounded
//     number outstanding, measuring sustained graph-submissions/sec,
//     steady-state tasks/sec, and p50/p99 submit-to-quiescence latency.
//
//   * teardown_under_load — cancels a quarter of a running wave mid-flight,
//     checks the victims land in kCancelled while bystanders complete, and
//     then runs a follow-up wave on the same engine to show forced teardown
//     left it serving.
//
// Every phase also records peak_threads, the process's thread count sampled
// on the host thread while its server runs: tasks that wait park their
// fibers, so a server runs on its dispatcher and workers and nothing else.
//
// Results land in a JSON artifact (--json-out, default
// BENCH_server_churn.json) so CI can smoke-run and track them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_format.hpp"
#include "jade/server/server.hpp"
#include "jade/support/stats.hpp"

namespace {

using namespace jade;
using server::JadeServer;
using server::ServerConfig;
using server::Session;
using server::SessionState;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void die(const std::string& why) {
  std::cerr << "verification failed: " << why << "\n";
  std::exit(1);
}

/// Peak thread count of this process, read from /proc/self/status on the
/// host thread.  A read costs microseconds, so sample() reads at most once a
/// millisecond unless forced.
class ThreadPeak {
 public:
  void sample(bool force = false) {
    const double now = now_seconds();
    if (!force && now - last_ < 1e-3) return;
    last_ = now;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("Threads:", 0) == 0)
        peak_ = std::max(peak_, std::stoi(line.substr(8)));
  }
  int peak() const { return peak_; }

 private:
  double last_ = 0;
  int peak_ = 0;
};

ServerConfig thread_server(std::size_t max_active, std::size_t max_queued,
                           std::uint64_t quota_pool) {
  ServerConfig cfg;
  cfg.runtime.engine = EngineKind::kThread;
  cfg.runtime.threads = 4;
  cfg.admission.max_active_sessions = max_active;
  cfg.admission.max_queued_sessions = max_queued;
  cfg.quota_pool = quota_pool;
  return cfg;
}

struct HoldResult {
  int sessions = 0;
  std::size_t peak_active = 0;
  std::size_t peak_live = 0;
  double admit_submit_seconds = 0;
  double drain_seconds = 0;
  double p50 = 0;
  double p99 = 0;
  int peak_threads = 0;
};

/// Phase 1: every session's graph parks one task on a host gate, so all of
/// them are concurrently live on the engine at once.
HoldResult run_concurrency_hold(int sessions) {
  HoldResult r;
  r.sessions = sessions;
  JadeServer srv(thread_server(static_cast<std::size_t>(sessions) + 8, 0, 0));
  std::atomic<bool> release{false};
  std::vector<std::shared_ptr<Session>> held;
  held.reserve(static_cast<std::size_t>(sessions));
  ThreadPeak threads;

  const double t0 = now_seconds();
  for (int i = 0; i < sessions; ++i) {
    auto s = srv.open_session("hold" + std::to_string(i));
    if (s == nullptr) die("hold session rejected");
    s->submit([&release](TaskContext& ctx) {
      ctx.withonly([](AccessDecl&) {}, [&release](TaskContext&) {
        while (!release.load(std::memory_order_acquire))
          std::this_thread::yield();
      });
    });
    held.push_back(std::move(s));
    threads.sample();
  }
  r.admit_submit_seconds = now_seconds() - t0;

  r.peak_active = srv.active_sessions();
  for (const auto& s : held)
    if (!server::session_terminal(s->state())) ++r.peak_live;

  release.store(true, std::memory_order_release);
  const double t1 = now_seconds();
  std::vector<double> latencies;
  latencies.reserve(held.size());
  for (const auto& s : held) {
    if (s->wait() != SessionState::kCompleted) die("hold session not clean");
    latencies.push_back(s->stats().latency_seconds);
    s->close();
    threads.sample();
  }
  r.drain_seconds = now_seconds() - t1;
  if (srv.active_sessions() != 0) die("hold slots not released");
  threads.sample(/*force=*/true);
  r.peak_threads = threads.peak();
  r.p50 = percentile(latencies, 0.50);
  r.p99 = percentile(latencies, 0.99);
  return r;
}

struct ChurnResult {
  int sessions = 0;
  int tasks_per_session = 0;
  std::size_t max_active = 0;
  double wall_seconds = 0;
  double submissions_per_sec = 0;
  double tasks_per_sec = 0;
  double p50 = 0;
  double p99 = 0;
  int peak_threads = 0;
};

/// Phase 2: a stream of short tenant programs through a small admission
/// window; a bounded outstanding set applies host-side backpressure the way
/// a real front end would.
ChurnResult run_churn(int sessions, int tasks_per_session) {
  ChurnResult r;
  r.sessions = sessions;
  r.tasks_per_session = tasks_per_session;
  r.max_active = 256;
  JadeServer srv(thread_server(r.max_active, 2048, 2048));

  struct InFlight {
    std::shared_ptr<Session> session;
    SharedRef<std::int64_t> counter;
  };
  std::deque<InFlight> outstanding;
  const std::size_t kWindow = 512;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(sessions));
  std::uint64_t total_tasks = 0;
  ThreadPeak threads;

  auto retire_front = [&] {
    InFlight f = std::move(outstanding.front());
    outstanding.pop_front();
    if (f.session->wait() != SessionState::kCompleted)
      die("churn session not clean");
    if (f.session->get(f.counter)[0] != tasks_per_session)
      die("churn counter mismatch");
    const auto st = f.session->stats();
    total_tasks += st.tasks_created;
    latencies.push_back(st.latency_seconds);
    f.session->close();
    threads.sample();
  };

  const double t0 = now_seconds();
  for (int i = 0; i < sessions; ++i) {
    while (outstanding.size() >= kWindow) retire_front();
    auto s = srv.open_session("churn" + std::to_string(i));
    if (s == nullptr) die("churn session rejected");
    auto ctr = s->alloc<std::int64_t>(1, "ctr");
    const int n = tasks_per_session;
    s->submit([ctr, n](TaskContext& ctx) {
      for (int k = 0; k < n; ++k) {
        ctx.withonly([&](AccessDecl& d) { d.cm(ctr); },
                     [ctr](TaskContext& t) { t.commute(ctr)[0] += 1; });
      }
    });
    outstanding.push_back({std::move(s), ctr});
    threads.sample();
  }
  while (!outstanding.empty()) retire_front();
  r.wall_seconds = now_seconds() - t0;
  threads.sample(/*force=*/true);
  r.peak_threads = threads.peak();
  r.submissions_per_sec = sessions / r.wall_seconds;
  r.tasks_per_sec = static_cast<double>(total_tasks) / r.wall_seconds;
  r.p50 = percentile(latencies, 0.50);
  r.p99 = percentile(latencies, 0.99);
  return r;
}

struct TeardownResult {
  int sessions = 0;
  int cancelled = 0;
  int completed = 0;
  int followup_sessions = 0;
  double followup_wall_seconds = 0;
  int peak_threads = 0;
};

/// Phase 3: forced teardown of a quarter of a running wave, then a
/// follow-up wave on the very same engine.
TeardownResult run_teardown(int sessions) {
  TeardownResult r;
  r.sessions = sessions;
  JadeServer srv(thread_server(static_cast<std::size_t>(sessions) + 8, 0, 0));
  std::vector<std::shared_ptr<Session>> wave;
  wave.reserve(static_cast<std::size_t>(sessions));
  ThreadPeak threads;
  for (int i = 0; i < sessions; ++i) {
    auto s = srv.open_session("mix" + std::to_string(i));
    if (s == nullptr) die("teardown session rejected");
    const bool victim = (i % 4) == 0;
    TenantCtl* ctl = &s->ctl();
    if (victim) {
      // Spawns until cancelled: teardown must interrupt it mid-stream.
      s->submit([ctl](TaskContext& ctx) {
        for (int k = 0;
             k < 100000 && !ctl->cancelled.load(std::memory_order_relaxed);
             ++k) {
          ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
        }
      });
    } else {
      s->submit([](TaskContext& ctx) {
        for (int k = 0; k < 8; ++k)
          ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
      });
    }
    wave.push_back(std::move(s));
    threads.sample();
  }
  for (int i = 0; i < sessions; i += 4)
    wave[static_cast<std::size_t>(i)]->cancel();
  for (int i = 0; i < sessions; ++i) {
    const SessionState st = wave[static_cast<std::size_t>(i)]->wait();
    if ((i % 4) == 0) {
      if (st != SessionState::kCancelled) die("victim not cancelled");
      ++r.cancelled;
    } else {
      if (st != SessionState::kCompleted) die("bystander disturbed");
      ++r.completed;
    }
    wave[static_cast<std::size_t>(i)]->close();
    threads.sample();
  }

  r.followup_sessions = sessions / 4;
  const double t0 = now_seconds();
  std::vector<std::shared_ptr<Session>> follow;
  for (int i = 0; i < r.followup_sessions; ++i) {
    auto s = srv.open_session("follow" + std::to_string(i));
    if (s == nullptr) die("follow-up session rejected");
    s->submit([](TaskContext& ctx) {
      for (int k = 0; k < 8; ++k)
        ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
    });
    follow.push_back(std::move(s));
  }
  for (const auto& s : follow) {
    if (s->wait() != SessionState::kCompleted)
      die("engine not serving after teardown");
    s->close();
    threads.sample();
  }
  r.followup_wall_seconds = now_seconds() - t0;
  threads.sample(/*force=*/true);
  r.peak_threads = threads.peak();
  return r;
}

/// Uniform bench_format rows, one per phase (keyed by "phase"), each
/// stamped with the host it was measured on.
void write_json(const std::string& path, const HoldResult& h,
                const ChurnResult& c, const TeardownResult& t) {
  jade::bench::JsonReport report("bench_server_churn");
  report.add_row()
      .str("phase", "concurrency_hold")
      .count("sessions", h.sessions)
      .count("peak_active", static_cast<std::uint64_t>(h.peak_active))
      .count("peak_live", static_cast<std::uint64_t>(h.peak_live))
      .num("admit_submit_seconds", h.admit_submit_seconds, 4)
      .num("admissions_per_sec", h.sessions / h.admit_submit_seconds, 1)
      .num("drain_seconds", h.drain_seconds, 4)
      .num("latency_p50_s", h.p50, 4)
      .num("latency_p99_s", h.p99, 4)
      .count("peak_threads", h.peak_threads)
      .stamp_host();
  report.add_row()
      .str("phase", "churn")
      .count("sessions", c.sessions)
      .count("tasks_per_session", c.tasks_per_session)
      .count("max_active", static_cast<std::uint64_t>(c.max_active))
      .num("wall_seconds", c.wall_seconds, 4)
      .num("submissions_per_sec", c.submissions_per_sec, 1)
      .num("tasks_per_sec", c.tasks_per_sec, 1)
      .num("latency_p50_s", c.p50, 5)
      .num("latency_p99_s", c.p99, 5)
      .count("peak_threads", c.peak_threads)
      .stamp_host();
  report.add_row()
      .str("phase", "teardown_under_load")
      .count("sessions", t.sessions)
      .count("cancelled", t.cancelled)
      .count("completed", t.completed)
      .count("followup_sessions", t.followup_sessions)
      .num("followup_wall_seconds", t.followup_wall_seconds, 4)
      .count("peak_threads", t.peak_threads)
      .stamp_host();
  report.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      jade::bench::json_out_path(argc, argv, "BENCH_server_churn.json");
  int hold = 1000;
  int sessions = 3000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hold") == 0 && i + 1 < argc)
      hold = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc)
      sessions = std::atoi(argv[++i]);
  }

  std::cout << "=== JadeServer sustained-traffic benchmark ===\n";

  const HoldResult h = run_concurrency_hold(hold);
  std::cout << "--- concurrency hold: " << h.sessions << " sessions ---\n";
  TextTable ht({"metric", "value"});
  ht.add_row({"peak live sessions", std::to_string(h.peak_live)});
  ht.add_row({"admit+submit s", format_double(h.admit_submit_seconds, 4)});
  ht.add_row({"admissions/sec",
              format_double(h.sessions / h.admit_submit_seconds, 0)});
  ht.add_row({"drain s", format_double(h.drain_seconds, 4)});
  ht.add_row({"latency p99 s", format_double(h.p99, 4)});
  ht.add_row({"peak threads", std::to_string(h.peak_threads)});
  ht.print(std::cout);

  const ChurnResult c = run_churn(sessions, 8);
  std::cout << "--- churn: " << c.sessions << " sessions x "
            << c.tasks_per_session << " tasks ---\n";
  TextTable ct({"metric", "value"});
  ct.add_row({"wall s", format_double(c.wall_seconds, 4)});
  ct.add_row({"submissions/sec", format_double(c.submissions_per_sec, 0)});
  ct.add_row({"tasks/sec", format_double(c.tasks_per_sec, 0)});
  ct.add_row({"latency p50 s", format_double(c.p50, 5)});
  ct.add_row({"latency p99 s", format_double(c.p99, 5)});
  ct.add_row({"peak threads", std::to_string(c.peak_threads)});
  ct.print(std::cout);

  const TeardownResult t = run_teardown(400);
  std::cout << "--- teardown under load: " << t.sessions << " sessions, "
            << t.cancelled << " cancelled mid-run, " << t.completed
            << " completed, " << t.followup_sessions
            << " follow-ups served in "
            << format_double(t.followup_wall_seconds, 4) << " s ---\n";

  write_json(json_path, h, c, t);
  std::cout << "(all phases verified; results recorded in " << json_path
            << ")\n";
  return 0;
}
