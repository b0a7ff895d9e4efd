// server_churn — the churn phase of bench/bench_server_churn.cpp: JadeServer
// on a resident ThreadEngine, fed a stream of short tenant programs.
//
// The traffic is that phase's, unchanged: a four-worker ThreadEngine, an
// admission window of 256 active and 2048 queued sessions, a quota pool of
// 2048 live-task slots, one host thread keeping at most 512 sessions
// outstanding, and 3000 sessions per server.  Every session allocates one
// counter and submits eight microtasks that each commute an increment into
// it; the host retires the oldest outstanding session when the window is
// full, checks its counter, and closes it.  Latency is submit-to-quiescence
// as the session records it, the figure the churn phase reports.
//
// The seed picks each microtask's increment (the churn phase adds 1), so the
// counter check depends on every increment landing exactly once.  When a
// server has served its 3000 sessions it is stopped and a fresh one started,
// outside the measured time; a perpetual run keeps every task's record until
// it ends.
#include <array>
#include <deque>
#include <stdexcept>
#include <string>

#include "harness.hpp"

#include "jade/server/server.hpp"
#include "jade/support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr std::size_t kMaxActive = 256;
constexpr std::size_t kMaxQueued = 2048;
constexpr std::uint64_t kQuotaPool = 2048;
constexpr std::size_t kOutstanding = 512;
constexpr int kSessionsPerServer = 3000;
constexpr int kTasksPerSession = 8;

using jade::server::Session;
using jade::server::SessionState;

/// Root-body span of one session, stamped on an engine thread; wait()
/// returning orders the stores before the host reads them.
struct RootSpan {
  Clock::time_point begin, end;
};

/// A submitted session the host has not retired yet.
struct InFlight {
  std::shared_ptr<Session> session;
  jade::SharedRef<std::int64_t> counter;
  std::int64_t expect = 0;
  double put_s = 0;  ///< open_session admission + counter allocation
  std::unique_ptr<RootSpan> root;
};

class ServerChurn final : public Workload {
 public:
  ServerChurn(std::uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void prepare() override {}  // increments are drawn per session

  void start() override {
    next_ = 0;
    engine_ = Layers{};
    start_server();
  }

  void stop() override { srv_.reset(); }

  bool warm_up() override {
    RunResult r;
    std::deque<InFlight> one;
    submit_next(r, one);
    while (!one.empty()) retire_front(r, one);
    return r.failed == 0;
  }

  RunResult measure(double seconds) override {
    RunResult r;
    while (r.wall_s < seconds) {
      if (srv_ == nullptr) start_server();  // untimed
      r.wall_s += churn_segment(r, seconds - r.wall_s);
      retire_server();
    }
    // Engines publish their counters when their perpetual run ends;
    // attribute them to the measured sessions by their share of all
    // sessions those engines served, warm-up included.
    const double share = static_cast<double>(r.latencies_s.size()) /
                         static_cast<double>(next_);
    r.layers.tasks_stolen = share * engine_.tasks_stolen;
    r.layers.worker_parks = share * engine_.worker_parks;
    r.layers.messages = share * engine_.messages;
    r.layers.payload_bytes = share * engine_.payload_bytes;
    r.layers.object_copies = share * engine_.object_copies;
    r.layers.trace_events = share * engine_.trace_events;
    return r;
  }

 private:
  void start_server() {
    jade::server::ServerConfig cfg;
    cfg.runtime.engine = jade::EngineKind::kThread;
    cfg.runtime.threads = kWorkers;
    cfg.runtime.obs = obs_config(trace_);
    cfg.admission.max_active_sessions = kMaxActive;
    cfg.admission.max_queued_sessions = kMaxQueued;
    cfg.quota_pool = kQuotaPool;
    srv_ = std::make_unique<jade::server::JadeServer>(std::move(cfg));
    served_ = 0;
  }

  /// Stops the server and folds its engine's counters into engine_.
  void retire_server() {
    srv_->stop();
    engine_.add_engine_stats(srv_->runtime().stats());
    std::uint64_t mark = 0;
    engine_.trace_events +=
        static_cast<double>(trace_events_since(srv_->runtime(), mark));
    srv_.reset();
  }

  /// Streams sessions through the current server until it has served
  /// kSessionsPerServer or `budget_s` has passed, then retires every
  /// outstanding one; returns the segment's length.
  double churn_segment(RunResult& r, double budget_s) {
    std::deque<InFlight> outstanding;
    const Clock::time_point t0 = Clock::now();
    while (served_ < kSessionsPerServer &&
           seconds_between(t0, Clock::now()) < budget_s) {
      while (outstanding.size() >= kOutstanding) retire_front(r, outstanding);
      submit_next(r, outstanding);
    }
    while (!outstanding.empty()) retire_front(r, outstanding);
    return seconds_between(t0, Clock::now());
  }

  /// Opens the next session and submits its eight commuting increments.
  void submit_next(RunResult& r, std::deque<InFlight>& outstanding) {
    const std::uint64_t n = next_++;
    ++served_;
    jade::Rng rng(seed_ ^ (n * 0x9e3779b97f4a7c15ULL));
    std::array<std::int64_t, kTasksPerSession> inc{};
    InFlight f;
    for (auto& v : inc) {
      v = 1 + static_cast<std::int64_t>(rng.next_below(1000));
      f.expect += v;
    }
    try {
      const Clock::time_point t0 = Clock::now();
      f.session = srv_->open_session("churn" + std::to_string(n));
      if (f.session == nullptr) throw std::runtime_error("session rejected");
      f.counter = f.session->alloc<std::int64_t>(1, "ctr");
      f.put_s = seconds_between(t0, Clock::now());
      f.root = std::make_unique<RootSpan>();
      f.session->submit([ctr = f.counter, inc, span = f.root.get()](
                            jade::TaskContext& ctx) {
        span->begin = Clock::now();
        for (const std::int64_t v : inc)
          ctx.withonly([&](jade::AccessDecl& d) { d.cm(ctr); },
                       [ctr, v](jade::TaskContext& t) { t.commute(ctr)[0] += v; });
        span->end = Clock::now();
      });
    } catch (const std::exception& e) {
      report_op_error(e);
      ++r.attempted;
      ++r.failed;
      if (f.session != nullptr) f.session->close();
      return;
    }
    outstanding.push_back(std::move(f));
  }

  /// Waits for the oldest outstanding session, checks its counter, closes
  /// it, and records it.
  static void retire_front(RunResult& r, std::deque<InFlight>& outstanding) {
    InFlight f = std::move(outstanding.front());
    outstanding.pop_front();
    ++r.attempted;
    try {
      bool ok = f.session->wait() == SessionState::kCompleted;
      const Clock::time_point t0 = Clock::now();
      ok = ok && f.session->get(f.counter)[0] == f.expect;
      const jade::server::SessionStats st = f.session->stats();
      f.session->close();
      if (!ok) {
        ++r.failed;
        return;
      }
      Layers l;
      l.put_s = f.put_s;
      l.spawn_s = seconds_between(f.root->begin, f.root->end);
      l.drain_s = st.latency_seconds - l.spawn_s;
      l.get_s = seconds_between(t0, Clock::now());
      l.tasks = static_cast<double>(st.tasks_created);
      r.latencies_s.push_back(st.latency_seconds);
      r.layers.add(l);
    } catch (const std::exception& e) {
      report_op_error(e);
      ++r.failed;
    }
  }

  const std::uint64_t seed_;
  const bool trace_;
  std::unique_ptr<jade::server::JadeServer> srv_;
  int served_ = 0;          ///< sessions opened on the current server
  std::uint64_t next_ = 0;  ///< sessions opened since start()
  Layers engine_;           ///< counters of the retired servers' engines
};

}  // namespace

std::unique_ptr<Workload> make_server_churn(std::uint64_t seed, bool trace) {
  return std::make_unique<ServerChurn>(seed, trace);
}

}  // namespace perfbench
