// JadeServer — a multi-tenant, sustained-traffic front end over one engine.
//
// The paper's runtime executes one program and exits.  This server keeps
// one engine (and its worker pool / simulated cluster) resident and feeds
// it a stream of independent Jade programs: each admitted session becomes a
// *program root* task whose subtree is woven with the session's TenantCtl,
// giving it isolated objects (serializer-enforced), its own fair-share
// live-task quota (ThrottleGate), contained failures, and forced teardown
// that unwinds without corrupting shared engine state.
//
// Two dispatch modes, chosen by the engine:
//
//   * live (ThreadEngine) — the server owns a dispatcher thread that runs
//     one perpetual engine run(); its root body loops on the submission
//     queue and launches tenant roots as they arrive.  Submissions from any
//     host thread start executing immediately; stop() ends the root loop
//     and the run drains.
//
//   * batch (SimEngine/SerialEngine) — these engines are single-threaded by
//     design, so submissions accumulate until drain(), which executes every
//     pending tenant graph in one engine run (deterministically, in
//     submission order) and returns when all have quiesced.  drain() may be
//     called repeatedly: the engine resets its scheduling state between
//     runs while tenant objects persist.
//
// Admission (AdmissionController) bounds concurrent and queued sessions and
// the declared resident-byte footprint; closing a session promotes queued
// ones FIFO.  Quotas: with quota_pool > 0, the pool of live-task slots is
// re-split across active sessions (fair_share_windows) on every admit and
// close, so each tenant's task creation throttles at its fair share and no
// tenant starves.  Observability: per-tenant counters are published as
// "tenant.<id>.*" at quiescence and session latency feeds the
// "server.session_latency" histogram — all in the engine's own registry.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/server/admission.hpp"
#include "jade/server/session.hpp"

namespace jade::server {

struct ServerConfig {
  /// Engine choice and tuning; the server owns the Runtime built from it.
  RuntimeConfig runtime;
  AdmissionConfig admission;
  /// Live-task slots split across active sessions in proportion to their
  /// weights (0: per-tenant quotas off — only the engine's global throttle,
  /// if configured, limits creation).  Every active session's window is at
  /// least one live task regardless of weight (the starvation floor).
  std::uint64_t quota_pool = 0;
};

struct SessionOptions {
  /// Fair-share weight for the quota split (<= 0 gets the floor).
  double weight = 1.0;
  /// Declared resident-byte footprint, charged against the admission byte
  /// budget for the session's whole admitted lifetime.
  std::size_t expected_bytes = 0;
};

class JadeServer {
 public:
  explicit JadeServer(ServerConfig config);
  ~JadeServer();

  JadeServer(const JadeServer&) = delete;
  JadeServer& operator=(const JadeServer&) = delete;

  /// Admits, queues, or rejects a new session.  Returns nullptr on
  /// rejection (queue full, impossible byte request, or server stopping).
  std::shared_ptr<Session> open_session(std::string name,
                                        SessionOptions options = {});

  /// Batch mode only: runs every pending submission to quiescence in one
  /// engine run.  No-op when nothing is pending; ConfigError in live mode.
  void drain();

  /// Stops accepting sessions, ends the dispatcher loop, and waits for
  /// in-flight tenant graphs to drain.  Sessions still queued or never
  /// launched finish as kCancelled.  Idempotent; the destructor calls it.
  /// For a fast shutdown, cancel() the running sessions first.
  void stop();

  std::size_t active_sessions() const;
  std::size_t queued_sessions() const;

  Runtime& runtime() { return runtime_; }
  Engine& engine() { return runtime_.engine(); }
  obs::MetricsRegistry& metrics() { return runtime_.metrics(); }
  const ServerConfig& config() const { return config_; }

 private:
  friend class Session;

  /// One queued launch: the body plus the owning handle that keeps the
  /// session alive until its root task retires.
  struct Launch {
    std::shared_ptr<Session> session;
    TaskContext::BodyFn body;
  };

  // Session-facing operations (Session methods delegate here).
  void submit(Session& s, TaskContext::BodyFn body);
  void cancel(Session& s);
  void close(Session& s);
  /// Engine-side quiescence accounting: latency histogram + outcome
  /// counters.  Called from Session::on_quiesce under the engine's
  /// serializer discipline.
  void note_quiesced(SessionState outcome, double latency_seconds);

  void enqueue_launch(Launch launch);
  static void launch(TaskContext& ctx, Launch l);
  void dispatch_loop(TaskContext& ctx);

  /// Pops wait-queue sessions into active slots while capacity lasts, then
  /// re-splits the quota pool.  Callers hold mu_.
  void promote_locked();
  void recompute_quotas_locked();

  ServerConfig config_;
  Runtime runtime_;
  const bool live_;  ///< ThreadEngine: dispatcher thread + perpetual run

  mutable std::mutex mu_;  ///< sessions, admission, quotas, stopping flag
  AdmissionController admission_;
  TenantId next_tenant_ = 1;
  bool stopping_ = false;
  std::unordered_map<TenantId, std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<Session>> active_;
  std::deque<std::shared_ptr<Session>> wait_queue_;

  /// Submission queue feeding the dispatcher (leaf lock: never held while
  /// calling into the engine or taking mu_).
  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<Launch> submissions_;
  bool qstopping_ = false;

  std::thread dispatcher_;
  std::exception_ptr run_error_;

  // Server-level metric handles (engine registry; resolved at construction).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_queued_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
};

}  // namespace jade::server
