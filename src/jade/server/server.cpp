#include "jade/server/server.hpp"

#include <algorithm>

#include "jade/sched/governor.hpp"
#include "jade/support/error.hpp"

namespace jade::server {

JadeServer::JadeServer(ServerConfig config)
    : config_(std::move(config)),
      runtime_(config_.runtime),
      live_(config_.runtime.engine == EngineKind::kThread),
      admission_(config_.admission) {
  obs::MetricsRegistry& reg = runtime_.metrics();
  m_admitted_ = &reg.counter("server.sessions_admitted");
  m_queued_ = &reg.counter("server.sessions_queued");
  m_rejected_ = &reg.counter("server.sessions_rejected");
  m_completed_ = &reg.counter("server.sessions_completed");
  m_failed_ = &reg.counter("server.sessions_failed");
  m_cancelled_ = &reg.counter("server.sessions_cancelled");
  m_latency_ = &reg.histogram("server.session_latency");
  if (live_) {
    dispatcher_ = std::thread([this] {
      try {
        runtime_.run([this](TaskContext& ctx) { dispatch_loop(ctx); });
      } catch (...) {
        // An engine-level failure (not a tenant body — those are contained)
        // takes the whole server down: fail every live session so waiters
        // unblock, and surface the error from stop().
        std::lock_guard<std::mutex> lock(mu_);
        run_error_ = std::current_exception();
        stopping_ = true;
        for (auto& [id, s] : sessions_) {
          if (!session_terminal(s->state())) {
            s->ctl_.record_failure(run_error_);
            s->finish_as(SessionState::kFailed);
          }
        }
      }
    });
  }
}

JadeServer::~JadeServer() {
  try {
    stop();
  } catch (...) {
    // stop() rethrows a stored engine failure; a destructor must not.
  }
}

std::shared_ptr<Session> JadeServer::open_session(std::string name,
                                                  SessionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return nullptr;
  const Admission decision = admission_.decide(options.expected_bytes);
  if (decision == Admission::kReject) {
    m_rejected_->add(1);
    return nullptr;
  }
  const TenantId id = next_tenant_++;
  auto s = std::shared_ptr<Session>(new Session(
      *this, runtime_.engine(), id, std::move(name), options.weight,
      options.expected_bytes));
  // Metric handles, resolved here so every registry mutation from the
  // server side is serialized under mu_.
  obs::MetricsScope scope =
      runtime_.metrics().scope("tenant." + std::to_string(id) + ".");
  s->m_created_ = &scope.counter("tasks_created");
  s->m_completed_ = &scope.counter("tasks_completed");
  s->m_cancelled_ = &scope.counter("tasks_cancelled");
  s->m_max_live_ = &scope.counter("max_live");
  s->ctl_.on_quiesce = [raw = s.get()](TenantCtl&) { raw->on_quiesce(); };
  sessions_.emplace(id, s);
  if (decision == Admission::kAdmit) {
    admission_.admit(options.expected_bytes);
    s->holds_slot_ = true;
    s->state_.store(SessionState::kAdmitted, std::memory_order_release);
    active_.push_back(s);
    recompute_quotas_locked();
    m_admitted_->add(1);
  } else {
    admission_.note_queued();
    wait_queue_.push_back(s);
    m_queued_->add(1);
  }
  return s;
}

void JadeServer::submit(Session& s, TaskContext::BodyFn body) {
  std::shared_ptr<Session> sp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_)
      throw ConfigError("submit on a stopping server");
    const SessionState st = s.state();
    if (st == SessionState::kQueued) {
      if (s.pending_body_)
        throw ConfigError("session '" + s.name() + "' already submitted");
      // Latency clock starts now: queue wait is part of completion latency.
      s.submit_time_ = std::chrono::steady_clock::now();
      s.pending_body_ = std::move(body);
      return;
    }
    if (st != SessionState::kAdmitted)
      throw ConfigError("submit on session '" + s.name() + "' while " +
                        session_state_name(st));
    s.submit_time_ = std::chrono::steady_clock::now();
    s.state_.store(SessionState::kRunning, std::memory_order_release);
    sp = sessions_.at(s.id());
  }
  enqueue_launch({std::move(sp), std::move(body)});
}

void JadeServer::cancel(Session& s) {
  std::lock_guard<std::mutex> lock(mu_);
  const SessionState st = s.state();
  if (session_terminal(st)) return;
  if (st == SessionState::kQueued) {
    auto it = std::find_if(wait_queue_.begin(), wait_queue_.end(),
                           [&](const auto& q) { return q.get() == &s; });
    if (it != wait_queue_.end()) wait_queue_.erase(it);
    admission_.note_dequeued();
    s.finish_as(SessionState::kCancelled);
    note_quiesced(SessionState::kCancelled, 0);
    return;
  }
  if (st == SessionState::kAdmitted) {
    // Holds a slot but never submitted: no tasks exist, finish directly.
    s.finish_as(SessionState::kCancelled);
    note_quiesced(SessionState::kCancelled, 0);
    return;
  }
  // kRunning: the graph (launched or still queued for the dispatcher)
  // unwinds cooperatively; quiescence delivers kCancelled.
  s.ctl_.cancelled.store(true, std::memory_order_relaxed);
  runtime_.engine().notify_external();
}

void JadeServer::close(Session& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s.closed_) return;
  if (!session_terminal(s.state()))
    throw ConfigError("close on session '" + s.name() + "' while " +
                      session_state_name(s.state()) +
                      " (wait() or cancel() first)");
  s.closed_ = true;
  {
    std::lock_guard<std::mutex> slock(s.mu_);
    for (ObjectId obj : s.owned_objects_)
      runtime_.engine().release_object(obj);
  }
  if (s.holds_slot_) {
    s.holds_slot_ = false;
    admission_.release(s.expected_bytes_);
    auto it = std::find_if(active_.begin(), active_.end(),
                           [&](const auto& a) { return a.get() == &s; });
    if (it != active_.end()) active_.erase(it);
  }
  sessions_.erase(s.id());
  promote_locked();
}

void JadeServer::note_quiesced(SessionState outcome, double latency_seconds) {
  // Engine serializer discipline (or mu_ for never-launched sessions):
  // calls are serialized per engine, and the histogram is touched nowhere
  // else while the server runs.
  switch (outcome) {
    case SessionState::kCompleted: m_completed_->add(1); break;
    case SessionState::kFailed: m_failed_->add(1); break;
    case SessionState::kCancelled: m_cancelled_->add(1); break;
    default: break;
  }
  if (latency_seconds > 0) m_latency_->observe(latency_seconds);
}

void JadeServer::enqueue_launch(Launch l) {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    submissions_.push_back(std::move(l));
  }
  qcv_.notify_one();
}

void JadeServer::launch(TaskContext& ctx, Launch l) {
  Session* s = l.session.get();
  ctx.withonly_tenant(
      &s->ctl_, [](AccessDecl&) {},
      [keep = std::move(l.session), body = std::move(l.body)](
          TaskContext& tc) { body(tc); },
      "t" + std::to_string(s->id()) + "/root");
}

void JadeServer::dispatch_loop(TaskContext& ctx) {
  for (;;) {
    Launch item;
    {
      std::unique_lock<std::mutex> lock(qmu_);
      qcv_.wait(lock,
                [this] { return qstopping_ || !submissions_.empty(); });
      if (submissions_.empty()) break;  // qstopping_ and nothing pending
      item = std::move(submissions_.front());
      submissions_.pop_front();
    }
    launch(ctx, std::move(item));
  }
}

void JadeServer::drain() {
  if (live_)
    throw ConfigError(
        "drain() is for batch engines; a ThreadEngine server dispatches "
        "continuously");
  std::deque<Launch> batch;
  {
    std::lock_guard<std::mutex> lock(qmu_);
    batch.swap(submissions_);
  }
  if (batch.empty()) return;
  runtime_.run([&batch](TaskContext& ctx) {
    for (Launch& l : batch) launch(ctx, std::move(l));
  });
}

void JadeServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(qmu_);
    qstopping_ = true;
  }
  qcv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Whatever never launched (batch leftovers, submissions racing stop)
  // finishes as cancelled so waiters unblock.
  std::deque<Launch> leftovers;
  {
    std::lock_guard<std::mutex> lock(qmu_);
    leftovers.swap(submissions_);
  }
  for (Launch& l : leftovers) l.session->finish_as(SessionState::kCancelled);
  std::deque<std::shared_ptr<Session>> queued;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued.swap(wait_queue_);
    err = run_error_;
  }
  for (auto& s : queued) s->finish_as(SessionState::kCancelled);
  if (err) {
    std::lock_guard<std::mutex> lock(mu_);
    run_error_ = nullptr;  // surface once
    std::rethrow_exception(err);
  }
}

std::size_t JadeServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_.active();
}

std::size_t JadeServer::queued_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_.queued();
}

void JadeServer::promote_locked() {
  while (!wait_queue_.empty()) {
    std::shared_ptr<Session>& front = wait_queue_.front();
    if (session_terminal(front->state())) {
      // Cancelled while queued but not yet removed (stop path safety).
      admission_.note_dequeued();
      wait_queue_.pop_front();
      continue;
    }
    if (!admission_.can_admit(front->expected_bytes_)) break;
    std::shared_ptr<Session> s = std::move(front);
    wait_queue_.pop_front();
    admission_.note_dequeued();
    admission_.admit(s->expected_bytes_);
    s->holds_slot_ = true;
    active_.push_back(s);
    m_admitted_->add(1);
    if (s->pending_body_) {
      s->state_.store(SessionState::kRunning, std::memory_order_release);
      enqueue_launch({s, std::move(s->pending_body_)});
      s->pending_body_ = nullptr;
    } else {
      s->state_.store(SessionState::kAdmitted, std::memory_order_release);
    }
  }
  recompute_quotas_locked();
}

void JadeServer::recompute_quotas_locked() {
  if (config_.quota_pool == 0) return;
  std::vector<double> weights;
  weights.reserve(active_.size());
  for (const auto& s : active_) weights.push_back(s->weight_);
  const auto windows =
      fair_share_windows(config_.quota_pool, weights, /*min_window=*/1);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    active_[i]->ctl_.quota_hi.store(windows[i].first,
                                    std::memory_order_relaxed);
    active_[i]->ctl_.quota_lo.store(windows[i].second,
                                    std::memory_order_relaxed);
  }
  // Widened windows may unblock creators parked on the tenant gate.
  runtime_.engine().notify_external();
}

}  // namespace jade::server
