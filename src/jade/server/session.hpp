// Session — one tenant program's lifetime on a shared engine.
//
// The paper's model is one program, one Runtime, one run().  A session is
// that same programming model re-hosted on an engine shared with thousands
// of other programs: the session allocates its shared objects (tagged with
// its TenantId so the serializer rejects any cross-tenant declaration),
// submits one root body, waits for the graph to drain, reads results back,
// and closes — releasing its object storage and its admission slot.
//
// Lifecycle:  open_session ──► kAdmitted ──submit──► kRunning ──┐
//                   │                                           │ graph
//                   ▼                                           ▼ drains
//               kQueued ──promote──► kAdmitted            kCompleted /
//                   │                                kFailed / kCancelled
//                   └── cancel/stop ──► kCancelled            │
//                                                           close()
//
// Termination is detected by the tenant's quiesce hook — the serializer
// fires it when the tenant's live-task count drops to zero — so wait()
// needs no polling and no help from the dispatcher.  A failed body cancels
// the tenant (its remaining tasks unwind) but never the engine: the first
// escaped exception is kept in the TenantCtl and rethrown to whoever calls
// rethrow_failure().
//
// Thread safety: every member is safe to call from any host thread, and
// alloc/put/get also from this tenant's own task bodies.  See
// docs/SERVER.md for the full contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "jade/core/task.hpp"
#include "jade/core/tenant.hpp"
#include "jade/engine/engine.hpp"
#include "jade/support/error.hpp"

namespace jade::server {

class JadeServer;

enum class SessionState : std::uint8_t {
  kQueued,     ///< admitted to the wait queue, no active slot yet
  kAdmitted,   ///< holds an active slot, body not yet submitted
  kRunning,    ///< body submitted (may still be waiting for the dispatcher)
  kCompleted,  ///< graph drained cleanly
  kFailed,     ///< a task body threw; failure() holds the exception
  kCancelled,  ///< torn down by cancel() or server stop
};

inline bool session_terminal(SessionState s) {
  return s == SessionState::kCompleted || s == SessionState::kFailed ||
         s == SessionState::kCancelled;
}

const char* session_state_name(SessionState s);

/// Snapshot of one session's accounting (see TenantCtl for the semantics).
struct SessionStats {
  std::uint64_t tasks_created = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t max_live = 0;
  /// submit() to quiescence, wall seconds (0 until terminal).
  double latency_seconds = 0;
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  TenantId id() const { return ctl_.id; }
  const std::string& name() const { return name_; }
  SessionState state() const { return state_.load(std::memory_order_acquire); }

  /// Allocates a zero-initialized shared array owned by this tenant.  The
  /// object's registry name is prefixed "t<id>/" and its tenant tag makes
  /// any other tenant's declaration of it a TenantIsolationError.
  template <typename T>
  SharedRef<T> alloc(std::size_t count, std::string name = "") {
    static_assert(std::is_trivially_copyable_v<T>);
    const ObjectId id =
        alloc_raw(TypeDescriptor::array_of<T>(count), std::move(name));
    return SharedRef<T>(id, count);
  }

  /// Host-side write; rejects objects this tenant does not own.
  template <typename T>
  void put(const SharedRef<T>& ref, std::span<const T> data) {
    check_owned(ref.id());
    engine_->put_bytes(ref.id(),
                       {reinterpret_cast<const std::byte*>(data.data()),
                        data.size() * sizeof(T)});
  }

  /// Host-side read; rejects objects this tenant does not own.
  template <typename T>
  std::vector<T> get(const SharedRef<T>& ref) {
    check_owned(ref.id());
    std::vector<std::byte> raw = engine_->get_bytes(ref.id());
    JADE_ASSERT(raw.size() == ref.byte_size());
    std::vector<T> out(ref.count());
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Submits this session's program: `body` becomes the tenant's root task
  /// once the dispatcher launches it (immediately when admitted; after
  /// promotion when queued).  One submission per session.
  void submit(TaskContext::BodyFn body);

  /// Blocks until the session reaches a terminal state and returns it.
  /// On a batch-mode server (SimEngine/SerialEngine) the graph only runs
  /// inside JadeServer::drain(), so call that first.
  SessionState wait();

  /// Forced teardown: pending task bodies are skipped, spawning/waiting
  /// ones unwind, and the graph drains to kCancelled without disturbing
  /// other tenants.  Idempotent; a no-op once terminal.
  void cancel();

  /// Releases the session's object storage and admission slot (promoting
  /// queued sessions).  Requires a terminal state.  Idempotent.
  void close();

  SessionStats stats() const;

  /// First exception that escaped one of this session's task bodies, or
  /// null.  rethrow_failure() throws it (no-op when clean).
  std::exception_ptr failure() const { return ctl_.failure(); }
  void rethrow_failure() const;

  /// The tenant control block (white-box tests; quota introspection).
  TenantCtl& ctl() { return ctl_; }

 private:
  friend class JadeServer;

  Session(JadeServer& server, Engine& engine, TenantId id, std::string name,
          double weight, std::size_t expected_bytes);

  ObjectId alloc_raw(TypeDescriptor type, std::string name);
  void check_owned(ObjectId obj) const;

  /// TenantCtl::on_quiesce target: runs under the engine's serializer
  /// discipline when the last task completes.  Records the terminal state,
  /// publishes the tenant's metrics, notifies waiters.
  void on_quiesce();

  /// Marks a terminal state and wakes wait()ers (never-launched paths:
  /// cancellation while queued, server stop).
  void finish_as(SessionState s);

  JadeServer* server_;
  Engine* engine_;
  TenantCtl ctl_;
  const std::string name_;
  const double weight_;
  const std::size_t expected_bytes_;

  std::atomic<SessionState> state_{SessionState::kQueued};
  /// Guarded by mu_: the wait()/notify handshake and the owned-object list.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ObjectId> owned_objects_;
  std::size_t bytes_allocated_ = 0;

  // JadeServer state, guarded by the server's mutex.
  TaskContext::BodyFn pending_body_;  ///< queued sessions park their body here
  bool holds_slot_ = false;
  bool closed_ = false;

  std::chrono::steady_clock::time_point submit_time_{};
  std::atomic<double> latency_seconds_{0};

  // Metric handles, resolved once at open (registry references are stable).
  obs::Counter* m_created_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_max_live_ = nullptr;
};

}  // namespace jade::server
