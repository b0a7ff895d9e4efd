#include "jade/cluster/cluster_engine.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "jade/cluster/worker.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {

namespace {

/// Dispatch-window depth when matching ready tasks to an idle worker; deep
/// enough for locality to matter, shallow enough to stay serial-order-ish.
constexpr std::size_t kPickWindow = 32;

std::exception_ptr capture_error(ErrorCode code, const std::string& what) {
  try {
    rethrow_error(code, what);
  } catch (...) {
    return std::current_exception();
  }
}

}  // namespace

ClusterEngine::ClusterEngine(Options options, SchedPolicy sched)
    : Engine(sched.throttle),
      options_(options),
      sched_(sched),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.workers < 1)
    throw ConfigError("cluster workers must be at least 1");
  if (options_.spares < 0)
    throw ConfigError("cluster spares must be non-negative");
  if (options_.heartbeat_interval <= 0)
    throw ConfigError("cluster heartbeat_interval must be positive");
  if (options_.miss_threshold < 1)
    throw ConfigError("cluster miss_threshold must be at least 1");
  // A worker can die with coordinator frames still queued toward it.
  ::signal(SIGPIPE, SIG_IGN);
}

ClusterEngine::~ClusterEngine() {
  shutdown_workers();
  if (self_pipe_[0] >= 0) ::close(self_pipe_[0]);
  if (self_pipe_[1] >= 0) ::close(self_pipe_[1]);
}

double ClusterEngine::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ClusterEngine::wake_event_loop() {
  if (self_pipe_[1] >= 0) {
    const char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(self_pipe_[1], &b, 1);
  }
}

// --- lifecycle --------------------------------------------------------------

void ClusterEngine::ensure_workers_started() {
  if (started_) return;
  if (::pipe2(self_pipe_, O_NONBLOCK | O_CLOEXEC) != 0)
    throw ConfigError("cluster: pipe2 failed");

  const int total = options_.workers + options_.spares;
  slots_.resize(static_cast<std::size_t>(total));
  std::vector<int> parent_fds;
  for (int i = 0; i < total; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw ConfigError("cluster: socketpair failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw ConfigError("cluster: fork failed");
    if (pid == 0) {
      // Child: drop every coordinator-side fd we inherited, then become a
      // worker.  worker_main never returns (it _exit()s).
      ::close(sv[0]);
      for (int fd : parent_fds) ::close(fd);
      ::close(self_pipe_[0]);
      ::close(self_pipe_[1]);
      worker_main(sv[1]);
    }
    ::close(sv[1]);
    parent_fds.push_back(sv[0]);
    slots_[static_cast<std::size_t>(i)].pid = pid;
    slots_[static_cast<std::size_t>(i)].channel =
        std::make_unique<Channel>(sv[0]);
  }

  // Handshake while the channels still block: every worker says Hello.
  for (WorkerSlot& slot : slots_) {
    const auto hello = slot.channel->recv();
    if (!hello || hello->type != FrameType::kHello)
      throw ConfigError("cluster: worker failed to start");
    const HelloMsg msg = unpack<HelloMsg>(hello->payload);
    if (msg.pid != static_cast<std::int64_t>(slot.pid))
      throw ProtocolError("cluster: worker hello pid mismatch");
    slot.channel->set_nonblocking();
  }

  // The first `workers` processes become machines 0..W-1; the rest are
  // spares that stay parked in their pre-activation wait loop.
  for (int m = 0; m < options_.workers; ++m) {
    WorkerSlot& slot = slots_[static_cast<std::size_t>(m)];
    slot.machine = m;
    slot.channel->queue(FrameType::kActivate,
                        pack(ActivateMsg{m, options_.workers,
                                         options_.heartbeat_interval}));
    while (slot.channel->want_write())
      if (!slot.channel->flush())
        throw ConfigError("cluster: worker died during activation");
  }

  // Detector slot 0 is the coordinator itself (never suspected); worker m
  // reports as detector machine m + 1.
  detector_ = std::make_unique<FailureDetector>(options_.workers + 1,
                                                options_.heartbeat_interval,
                                                options_.miss_threshold);
  started_ = true;
}

void ClusterEngine::shutdown_workers() {
  if (!started_) return;
  for (WorkerSlot& slot : slots_) {
    if (slot.channel && !slot.channel->closed() && !slot.dead) {
      slot.channel->queue(FrameType::kShutdown, pack(ShutdownMsg{}));
      slot.channel->flush();  // best effort; EOF also makes workers exit
    }
    if (slot.channel) slot.channel->close();
  }
  for (WorkerSlot& slot : slots_) {
    if (slot.pid <= 0 || slot.dead) continue;
    int st = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      if (::waitpid(slot.pid, &st, WNOHANG) == slot.pid) reaped = true;
      else ::usleep(5000);
    }
    if (!reaped) {
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, &st, 0);
    }
    slot.dead = true;
  }
  started_ = false;
}

int ClusterEngine::slot_of_machine(MachineId m) const {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const WorkerSlot& slot = slots_[s];
    if (slot.machine == m && !slot.dead && !slot.eof && slot.channel &&
        !slot.channel->closed())
      return static_cast<int>(s);
  }
  return -1;
}

// --- Engine: object bytes ---------------------------------------------------

// Objects have no home: every canonical buffer lives in the coordinator,
// and a worker holds a copy only once a grant has shipped it one.
void ClusterEngine::create_storage(const ObjectInfo& info,
                                   MachineId /*home*/) {
  std::lock_guard<std::mutex> lock(mu_);
  // Racing allocations can land out of id order, so a gap's entry gets its
  // per-worker versions now and its bytes when its own call arrives.
  const auto workers = static_cast<std::size_t>(options_.workers);
  while (data_.size() < info.id)
    data_.emplace_back().shipped.assign(workers, 0);
  data_[info.id - 1].bytes.assign(info.byte_size(), std::byte{0});
}

void ClusterEngine::write_storage(ObjectId obj,
                                  std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mu_);
  ObjectData& d = object_locked(obj);
  std::memcpy(d.bytes.data(), data.data(), data.size());
  // The data version advances, so every worker's shipped copy goes stale
  // and the next dispatch re-ships the payload.
  ++d.version;
}

std::vector<std::byte> ClusterEngine::read_storage(ObjectId obj) {
  std::lock_guard<std::mutex> lock(mu_);
  return object_locked(obj).bytes;
}

// --- Engine: execution ------------------------------------------------------

void ClusterEngine::run(std::function<void(TaskContext&)> root_body) {
  ensure_workers_started();
  double run_start = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    begin_run();
    ready_.clear();
    unblocked_.clear();
    recs_.clear();
    pending_.clear();
    aborting_ = false;
    first_error_ = nullptr;
    root_done_ = false;
    root_unblocked_ = false;
    stats_.machine_busy_seconds.assign(
        static_cast<std::size_t>(options_.workers), 0.0);
    dispatches_ = payload_bytes_shipped_ = writeback_bytes_ = 0;
    rpc_acquires_ = rpc_with_conts_ = rpc_spawns_ = heartbeats_ = 0;
    run_start = wall_now();
    // Heartbeats queued up between runs were never drained; reset the
    // detector's idea of "recently heard" so a stale table cannot suspect
    // the whole cluster at the first sweep.
    for (const WorkerSlot& slot : slots_)
      if (slot.machine >= 0 && !slot.dead && !slot.eof)
        detector_->heartbeat_received(slot.machine + 1, run_start);
  }

  std::thread root_thread([&] {
    try {
      TaskContext ctx(this, serializer_.root());
      root_body(ctx);
      std::lock_guard<std::mutex> lock(mu_);
      commute_.release_all(serializer_.root(), token_handoff());
      if (!aborting_) {
        serializer_.complete_task(serializer_.root());
        drain_unblocked_locked();
        pump_locked();
      }
      root_done_ = true;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      abort_run_locked(std::current_exception());
      root_done_ = true;
    }
    wake_event_loop();
  });

  event_loop();
  root_thread.join();

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.finish_time = wall_now() - run_start;
    stats_.heartbeats_sent = heartbeats_;
    // Wire accounting: frames and bytes that actually crossed the sockets,
    // both directions.
    for (const WorkerSlot& slot : slots_) {
      if (!slot.channel) continue;
      stats_.messages += slot.channel->tx_frames() + slot.channel->rx_frames();
      stats_.bytes_sent += slot.channel->tx_bytes() + slot.channel->rx_bytes();
    }
    stats_.payload_bytes = payload_bytes_shipped_ + writeback_bytes_;
    end_run();
    metrics_.counter("cluster.dispatches").set(dispatches_);
    metrics_.counter("cluster.payload_bytes_shipped")
        .set(payload_bytes_shipped_);
    metrics_.counter("cluster.writeback_bytes").set(writeback_bytes_);
    metrics_.counter("cluster.rpc_acquires").set(rpc_acquires_);
    metrics_.counter("cluster.rpc_with_conts").set(rpc_with_conts_);
    metrics_.counter("cluster.rpc_spawns").set(rpc_spawns_);
    metrics_.counter("cluster.heartbeats").set(heartbeats_);
    metrics_.counter("cluster.worker_deaths").set(worker_deaths_);
    metrics_.counter("cluster.workers_respawned").set(workers_respawned_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

// --- event loop -------------------------------------------------------------

bool ClusterEngine::exit_condition_locked() const {
  if (!root_done_) return false;
  if (aborting_) {
    for (const WorkerSlot& slot : slots_)
      if (slot.running != nullptr && !slot.eof && !slot.dead) return false;
    return true;
  }
  return serializer_.outstanding() == 0;
}

void ClusterEngine::event_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> pslot;
  const int timeout_ms = std::max(
      1, static_cast<int>(options_.heartbeat_interval * 1000.0 / 2.0));
  for (;;) {
    pfds.clear();
    pslot.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (exit_condition_locked()) return;
      pfds.push_back({self_pipe_[0], POLLIN, 0});
      pslot.push_back(-1);
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        WorkerSlot& slot = slots_[s];
        if (slot.dead || slot.eof || !slot.channel || slot.channel->closed())
          continue;
        short events = POLLIN;
        if (slot.channel->want_write()) events |= POLLOUT;
        pfds.push_back({slot.channel->fd(), events, 0});
        pslot.push_back(static_cast<int>(s));
      }
    }

    ::poll(pfds.data(), pfds.size(), timeout_ms);

    std::lock_guard<std::mutex> lock(mu_);
    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(self_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      const int s = pslot[i];
      WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
      if (slot.dead || !slot.channel || slot.channel->closed()) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        std::vector<Frame> frames;
        bool open = true;
        try {
          open = slot.channel->drain(frames);
        } catch (...) {
          // Garbage from a babbling worker: surface the ProtocolError and
          // treat the link as dead.
          abort_run_locked(std::current_exception());
          slot.eof = true;
        }
        for (const Frame& f : frames) {
          try {
            handle_frame_locked(s, f);
          } catch (...) {
            abort_run_locked(std::current_exception());
            slot.eof = true;
            break;
          }
        }
        if (!open) slot.eof = true;
      }
      if (!slot.eof && slot.channel->want_write())
        if (!slot.channel->flush()) slot.eof = true;
    }
    sweep_locked();
  }
}

void ClusterEngine::sweep_locked() {
  const double now = wall_now();
  // sweep() flags newly silent machines; we then act on every standing
  // suspicion (not just new ones) so a death whose waitpid was not yet
  // conclusive is retried next sweep instead of being lost.
  const std::vector<MachineId> fresh = detector_->sweep(now);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    WorkerSlot& slot = slots_[s];
    if (slot.dead || slot.pid <= 0) continue;
    const bool suspected =
        slot.machine >= 0 && detector_->suspected(slot.machine + 1);
    if (!slot.eof && !suspected) continue;
    int st = 0;
    const pid_t r = ::waitpid(slot.pid, &st, WNOHANG);
    if (r == slot.pid) {
      handle_worker_death_locked(static_cast<int>(s));
    } else if (slot.eof) {
      // The socket closed but the process lingers (wedged or exiting):
      // finish the job and recover.
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, &st, 0);
      handle_worker_death_locked(static_cast<int>(s));
    } else if (std::find(fresh.begin(), fresh.end(), slot.machine + 1) !=
               fresh.end()) {
      ++stats_.false_suspicions;  // alive, just late — congestion
    }
  }
}

// --- frame handling ---------------------------------------------------------

void ClusterEngine::handle_frame_locked(int s, const Frame& f) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  switch (f.type) {
    case FrameType::kHeartbeat: {
      const HeartbeatMsg msg = unpack<HeartbeatMsg>(f.payload);
      if (slot.machine >= 0 && msg.machine == slot.machine) {
        detector_->heartbeat_received(slot.machine + 1, wall_now());
        ++heartbeats_;
      }
      return;
    }
    case FrameType::kDone:
      handle_done_locked(s, unpack<DoneMsg>(f.payload));
      return;
    case FrameType::kTaskError:
      handle_task_error_locked(s, unpack<TaskErrorMsg>(f.payload));
      return;
    case FrameType::kSpawn:
      handle_spawn_locked(s, unpack<SpawnMsg>(f.payload));
      return;
    case FrameType::kWithCont:
      handle_with_cont_locked(s, unpack<WithContMsg>(f.payload), true);
      return;
    case FrameType::kRetire:
      handle_with_cont_locked(s, unpack<WithContMsg>(f.payload), false);
      return;
    case FrameType::kAcquire:
      handle_acquire_locked(s, unpack<AcquireMsg>(f.payload));
      return;
    case FrameType::kObjData:
      return;  // late debug-probe reply; stale, drop
    default:
      throw ProtocolError("unexpected frame type " +
                          std::to_string(static_cast<int>(f.type)) +
                          " from worker machine " +
                          std::to_string(slot.machine));
  }
}

void ClusterEngine::handle_spawn_locked(int s, const SpawnMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* parent = slot.running;
  if (parent == nullptr || parent->id() != msg.parent)
    throw ProtocolError("spawn for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_spawns_;
  // A task that spawned can no longer be transparently re-executed: a
  // re-run would create its children twice.
  recs_[parent].restartable = false;
  if (aborting_) return;
  std::vector<AccessRequest> requests;
  requests.reserve(msg.requests.size());
  for (const ReqMsg& r : msg.requests)
    requests.push_back({r.obj, r.add_immediate, r.add_deferred, r.remove});
  try {
    create_registered_locked(parent, requests, msg.body, msg.args, msg.name,
                             msg.placement);
  } catch (...) {
    // A bad body or placement, or a hierarchy/tenant violation, from a
    // remote spawn has no ack channel to ride back on; it ends the run,
    // like a root-thread throw.
    abort_run_locked(std::current_exception());
    return;
  }
  drain_unblocked_locked();
  pump_locked();
}

void ClusterEngine::create_registered_locked(
    TaskNode* parent, const std::vector<AccessRequest>& requests, int body,
    std::vector<std::byte> args, std::string name, MachineId placement) {
  if (body < 0 || body >= BodyRegistry::instance().size())
    throw ConfigError("spawn names unregistered body index " +
                      std::to_string(body));
  if (placement >= options_.workers)
    throw ConfigError("task placement " + std::to_string(placement) +
                      " exceeds the cluster's " +
                      std::to_string(options_.workers) + " workers");
  for (const AccessRequest& r : requests)
    if (!known_locked(r.obj))
      throw ConfigError("spawn declares object " + std::to_string(r.obj) +
                        ", which the coordinator never allocated");
  TaskNode* child =
      serializer_.create_task(parent, requests, {}, std::move(name));
  child->placement = placement;
  TaskRec& rec = recs_[child];
  rec.body = body;
  rec.args = std::move(args);
}

void ClusterEngine::handle_with_cont_locked(int s, const WithContMsg& msg,
                                            bool acked) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError(std::string(acked ? "with_cont" : "retire") +
                        " for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_with_conts_;
  TaskRec& rec = recs_[task];
  // Payload flushes mutated canonical state mid-task; a re-run would apply
  // read-modify-write effects twice.
  rec.restartable = false;

  if (aborting_) {
    if (acked)
      refuse_locked(*slot.channel, PendingRpc::Kind::kWithCont, task,
                    kInvalidObject, UnrecoverableError("run aborted"));
    return;
  }

  // 1. Writebacks land before anything the retire might enable can read.
  for (const WithContItem& item : msg.items)
    if (item.has_payload)
      apply_writeback_locked(task, item.req.obj, item.payload, slot.machine);

  // 2. Retired commute rights return their tokens (possibly handing them
  //    to the oldest waiter) before the serializer sees the removal.
  for (const WithContItem& item : msg.items)
    if (item.req.remove & access::kCommute)
      commute_.release_to(item.req.obj, task, token_handoff());

  // 3. Spec update with the substantive requests; zero-bit items are pure
  //    payload flushes (the pre-spawn flush) and must not reach update_spec.
  PendingRpc rpc;
  rpc.kind = PendingRpc::Kind::kWithCont;
  rpc.worker = slot.machine;
  for (const WithContItem& item : msg.items)
    if (item.req.add_immediate | item.req.add_deferred | item.req.remove)
      rpc.requests.push_back({item.req.obj, item.req.add_immediate,
                              item.req.add_deferred, item.req.remove});
  // A retire's worker has already dropped the rights and is not waiting:
  // it must only remove bits, which cannot block or fail.
  if (!acked)
    for (const AccessRequest& req : rpc.requests)
      if (req.add_immediate | req.add_deferred)
        throw ProtocolError("retire adds rights on object " +
                            std::to_string(req.obj));
  bool must_block = false;
  if (!rpc.requests.empty()) {
    try {
      must_block = serializer_.update_spec(task, rpc.requests);
    } catch (const std::exception& e) {
      if (!acked)
        throw ProtocolError(std::string("retire refused: ") + e.what());
      refuse_locked(*slot.channel, PendingRpc::Kind::kWithCont, task,
                    kInvalidObject, e);
      drain_unblocked_locked();
      pump_locked();
      return;
    }
  }
  drain_unblocked_locked();
  if (must_block) {
    rpc.stage = PendingRpc::Stage::kSerializer;
    pending_[task] = std::move(rpc);
  } else if (acked) {
    finish_with_cont_locked(task, rpc);
  }
  pump_locked();
}

void ClusterEngine::finish_with_cont_locked(TaskNode* task,
                                            const PendingRpc& rpc) {
  const int s = slot_of_machine(rpc.worker);
  if (s < 0) return;  // the worker died; recovery already owns the task
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskRec& rec = recs_[task];
  const MachineId w = rpc.worker;

  // Only the rights this conversion added ship a payload now.
  WithContAckMsg ack;
  ack.task = task->id();
  for (const AccessRequest& req : rpc.requests)
    ack.objects.push_back(
        make_ship_locked(task, req.obj, w, req.add_immediate, rec));
  slot.channel->queue(FrameType::kWithContAck, pack(ack));
}

void ClusterEngine::handle_acquire_locked(int s, const AcquireMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("acquire for a task not running on machine " +
                        std::to_string(slot.machine));
  ++rpc_acquires_;
  if (aborting_) {
    refuse_locked(*slot.channel, PendingRpc::Kind::kAcquire, task, msg.obj,
                  UnrecoverableError("run aborted"));
    return;
  }
  bool must_block = false;
  try {
    must_block = serializer_.acquire(task, msg.obj, msg.mode);
  } catch (const std::exception& e) {
    refuse_locked(*slot.channel, PendingRpc::Kind::kAcquire, task, msg.obj, e);
    return;
  }
  PendingRpc rpc;
  rpc.kind = PendingRpc::Kind::kAcquire;
  rpc.worker = slot.machine;
  rpc.obj = msg.obj;
  rpc.mode = msg.mode;
  if (must_block) {
    rpc.stage = PendingRpc::Stage::kSerializer;
    pending_[task] = rpc;
    return;
  }
  continue_acquire_locked(task, rpc);
}

void ClusterEngine::continue_acquire_locked(TaskNode* task, PendingRpc& rpc) {
  if (rpc.mode & access::kCommute) {
    if (!commute_.try_acquire(rpc.obj, task)) {
      commute_.enqueue_waiter(rpc.obj, task);
      rpc.stage = PendingRpc::Stage::kToken;
      pending_[task] = rpc;
      return;
    }
  }
  grant_acquire_locked(task, rpc);
}

void ClusterEngine::grant_acquire_locked(TaskNode* task,
                                         const PendingRpc& rpc) {
  const int s = slot_of_machine(rpc.worker);
  if (s < 0) return;  // worker died while parked
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  const MachineId w = rpc.worker;
  const bool writes = (rpc.mode & (access::kWrite | access::kCommute)) != 0;

  AcquireAckMsg ack;
  ack.task = task->id();
  ack.obj = rpc.obj;
  ack.has_payload =
      ship_payload_locked(rpc.obj, w, writes, recs_[task], ack.payload);
  slot.channel->queue(FrameType::kAcquireAck, pack(ack));
}

void ClusterEngine::handle_done_locked(int s, const DoneMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("done for a task not running on machine " +
                        std::to_string(slot.machine));
  if (slot.machine >= 0)
    stats_.machine_busy_seconds[static_cast<std::size_t>(slot.machine)] +=
        wall_now() - slot.busy_since;
  slot.running = nullptr;
  if (tracer_.enabled())
    tracer_.span_end_at(wall_now(), obs::Subsystem::kEngine, "task",
                        task->id(), slot.machine);
  if (aborting_) {
    // The serializer's state is already off the success path, so the
    // writebacks are dropped.
    forget_unsaved_writes_locked(task, slot.machine);
    commute_.release_all(task, token_handoff());
    root_cv_.notify_all();
    return;
  }
  // Writebacks land before the commute tokens return: a token handoff
  // ships the canonical bytes, which must already include this task's
  // updates or the next commuter starts from a stale value.
  for (const DoneMsg::Write& wbk : msg.writes)
    apply_writeback_locked(task, wbk.obj, wbk.payload, slot.machine);
  task->charged_work = msg.charged;
  stats_.total_charged_work += msg.charged;
  commute_.release_all(task, token_handoff());
  finish_task_locked(task);
}

void ClusterEngine::handle_task_error_locked(int s, const TaskErrorMsg& msg) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  TaskNode* task = slot.running;
  if (task == nullptr || task->id() != msg.task)
    throw ProtocolError("task-error for a task not running on machine " +
                        std::to_string(slot.machine));
  slot.running = nullptr;
  forget_unsaved_writes_locked(task, slot.machine);
  commute_.release_all(task, token_handoff());
  abort_run_locked(capture_error(
      msg.code, msg.what + " (in task '" + task->name() + "')"));
}

// --- dispatch / completion --------------------------------------------------

void ClusterEngine::on_task_ready(TaskNode* task) { ready_.push_back(task); }

void ClusterEngine::on_task_unblocked(TaskNode* task) {
  unblocked_.push_back(task);
}

void ClusterEngine::drain_unblocked_locked() {
  while (!unblocked_.empty()) {
    std::vector<TaskNode*> batch;
    batch.swap(unblocked_);
    for (TaskNode* task : batch) {
      if (task == serializer_.root()) {
        root_unblocked_ = true;
        root_cv_.notify_all();
        continue;
      }
      auto it = pending_.find(task);
      if (it == pending_.end()) continue;
      PendingRpc rpc = std::move(it->second);
      pending_.erase(it);
      if (rpc.kind == PendingRpc::Kind::kAcquire)
        continue_acquire_locked(task, rpc);
      else
        finish_with_cont_locked(task, rpc);
    }
  }
}

void ClusterEngine::grant_token_locked(TaskNode* next) {
  // Never the root: its accessor finds the token free (acquire_bytes).
  auto it = pending_.find(next);
  if (it == pending_.end()) return;
  JADE_ASSERT(it->second.stage == PendingRpc::Stage::kToken);
  const PendingRpc rpc = std::move(it->second);
  pending_.erase(it);
  grant_acquire_locked(next, rpc);
}

void ClusterEngine::finish_task_locked(TaskNode* task) {
  serializer_.complete_task(task);
  recs_.erase(task);
  drain_unblocked_locked();
  pump_locked();
  root_cv_.notify_all();  // backlog changed: throttled creators re-check
}

void ClusterEngine::pump_locked() {
  if (aborting_) return;
  // Tracing also captures the scored window, so the selection can be
  // audited from the trace (the SimEngine "sched.place" counterpart).
  PlacementExplain explain;
  PlacementExplain* const why = tracer_.enabled() ? &explain : nullptr;
  bool dispatched = true;
  while (dispatched && !ready_.empty()) {
    dispatched = false;
    for (std::size_t s = 0; s < slots_.size() && !ready_.empty(); ++s) {
      WorkerSlot& slot = slots_[s];
      if (slot.machine < 0 || slot.dead || slot.eof || !slot.channel ||
          slot.channel->closed() || slot.running != nullptr)
        continue;
      // Candidate window: placement-compatible ready tasks, oldest first,
      // each scored by the declared bytes this worker holds at the current
      // version.
      std::vector<std::size_t> resident;
      std::vector<std::size_t> index_of;
      for (std::size_t i = 0;
           i < ready_.size() && resident.size() < kPickWindow; ++i) {
        TaskNode* t = ready_[i];
        if (t->placement >= 0) {
          if (slot_of_machine(t->placement) < 0) {
            abort_run_locked(std::make_exception_ptr(UnrecoverableError(
                "task '" + t->name() + "' is pinned to machine " +
                std::to_string(t->placement) + ", which died irrecoverably")));
            return;
          }
          if (t->placement != slot.machine) continue;
        }
        std::size_t bytes = 0;
        for (const DeclRecord* r : t->ordered_records()) {
          const ObjectData& d = data_[r->obj - 1];
          if (d.current_on(slot.machine)) bytes += d.bytes.size();
        }
        resident.push_back(bytes);
        index_of.push_back(i);
      }
      if (resident.empty()) continue;
      const std::size_t pick =
          pick_task_for_machine(resident, sched_.locality, why);
      TaskNode* task = ready_[static_cast<std::ptrdiff_t>(index_of[pick])];
      if (why != nullptr) {
        std::vector<std::uint64_t> ids;
        ids.reserve(index_of.size());
        for (std::size_t idx : index_of) ids.push_back(ready_[idx]->id());
        tracer_.instant_at(
            wall_now(), obs::Subsystem::kSched, "sched.place", task->id(),
            slot.machine, static_cast<double>(explain.task_candidates.size()),
            format_task_select_explain(explain, slot.machine, ids));
      }
      ready_.erase(ready_.begin() +
                   static_cast<std::ptrdiff_t>(index_of[pick]));
      dispatch_locked(task, static_cast<int>(s));
      dispatched = true;
    }
  }
  wake_event_loop();  // queued frames need a POLLOUT-aware poll set
}

void ClusterEngine::dispatch_locked(TaskNode* task, int s) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  const MachineId w = slot.machine;
  serializer_.task_started(task);
  TaskRec& rec = recs_[task];

  DispatchMsg msg;
  msg.task = task->id();
  msg.body = rec.body;
  msg.name = task->name();
  msg.args = rec.args;  // copied: a crash re-dispatch sends them again
  for (const DeclRecord* r : task->ordered_records())
    msg.objects.push_back(make_ship_locked(task, r->obj, w, r->immediate, rec));
  slot.channel->queue(FrameType::kDispatch, pack(msg));

  slot.running = task;
  slot.busy_since = wall_now();
  task->assigned_machine = w;
  ++dispatches_;
  if (tracer_.enabled())
    tracer_.span_begin_at(wall_now(), obs::Subsystem::kEngine, "task",
                          task->id(), w, task->name());
}

ObjectShip ClusterEngine::make_ship_locked(TaskNode* task, ObjectId obj,
                                           MachineId w, std::uint8_t granted,
                                           TaskRec& rec) {
  const DeclRecord* r = task->find_record(obj);
  ObjectShip ship;
  ship.obj = obj;
  ship.immediate = r ? r->immediate : 0;
  ship.deferred = r ? r->deferred : 0;
  ship.bytes = data_[obj - 1].bytes.size();
  // Commute-only rights ship their payload at the accessor RPC, after the
  // token orders this task among the commuters; deferred-only rights ship
  // at conversion.  Granted rd/wr rights ship now.
  granted &= ship.immediate;
  if (granted & (access::kRead | access::kWrite))
    ship.has_payload = ship_payload_locked(
        obj, w, (granted & access::kWrite) != 0, rec, ship.payload);
  return ship;
}

bool ClusterEngine::ship_payload_locked(ObjectId obj, MachineId w,
                                        bool write, TaskRec& rec,
                                        std::vector<std::byte>& payload) {
  ObjectData& d = data_[obj - 1];
  const bool current = d.current_on(w);
  // A write grant opens a new data version once per attempt (booked in
  // rec.dirtied); w's copy carries it, every other copy goes stale.
  std::vector<ObjectId>& dirtied = rec.dirtied;
  if (write &&
      std::find(dirtied.begin(), dirtied.end(), obj) == dirtied.end()) {
    ++d.version;
    dirtied.push_back(obj);
  }
  d.shipped[static_cast<std::size_t>(w)] = d.version;
  if (current) return false;
  payload = d.bytes;
  payload_bytes_shipped_ += payload.size();
  ++(write ? stats_.object_moves : stats_.object_copies);
  return true;
}

// --- data movement ----------------------------------------------------------

bool ClusterEngine::known_locked(ObjectId obj) const {
  return obj >= 1 && obj <= data_.size();
}

ClusterEngine::ObjectData& ClusterEngine::object_locked(ObjectId obj) {
  JADE_ASSERT_MSG(known_locked(obj), "unknown shared object id");
  return data_[obj - 1];
}

void ClusterEngine::apply_writeback_locked(TaskNode* task, ObjectId obj,
                                           std::span<const std::byte> data,
                                           MachineId from) {
  if (!known_locked(obj))
    throw ProtocolError("writeback for unknown object " + std::to_string(obj));
  // An honest worker dirties its copy only under a write or commute right.
  const DeclRecord* rec = task->find_record(obj);
  if (rec == nullptr ||
      (rec->immediate & (access::kWrite | access::kCommute)) == 0)
    throw ProtocolError("writeback without a write right on object " +
                        std::to_string(obj));
  ObjectData& d = data_[obj - 1];
  if (data.size() != d.bytes.size())
    throw ProtocolError("writeback size mismatch on object " +
                        std::to_string(obj));
  std::memcpy(d.bytes.data(), data.data(), data.size());
  // The writer's copy *is* the new canonical content; everyone else's
  // went stale when the data version advanced.
  d.shipped[static_cast<std::size_t>(from)] = ++d.version;
  writeback_bytes_ += data.size();
}

void ClusterEngine::forget_unsaved_writes_locked(TaskNode* task, MachineId w) {
  const auto it = recs_.find(task);
  if (it == recs_.end()) return;
  for (ObjectId obj : it->second.dirtied)
    data_[obj - 1].shipped[static_cast<std::size_t>(w)] = 0;
}

// --- TaskContext backend (root thread) --------------------------------------

void ClusterEngine::spawn(TaskNode* parent,
                          const std::vector<AccessRequest>& requests,
                          TaskContext::BodyFn body, std::string name,
                          MachineId placement, TenantCtl* tenant) {
  (void)parent;
  (void)requests;
  (void)body;
  (void)name;
  (void)placement;
  (void)tenant;
  throw ConfigError(
      "ClusterEngine cannot ship closures to worker processes; register the "
      "task body (BodyRegistry) and create children with cluster::spawn()");
}

void ClusterEngine::spawn_registered(TaskNode* parent,
                                     const std::vector<AccessRequest>& requests,
                                     int body, std::vector<std::byte> args,
                                     std::string name, MachineId placement) {
  std::unique_lock<std::mutex> lock(mu_);
  JADE_ASSERT_MSG(parent == serializer_.root(),
                  "coordinator-side spawn from a non-root task");
  if (throttle_.enabled() &&
      throttle_.should_throttle(serializer_.backlog())) {
    ++stats_.throttle_suspensions;
    root_cv_.wait(lock, [&] {
      return throttle_.backlog_drained(serializer_.backlog()) || aborting_;
    });
  }
  throw_if_aborting_locked();
  create_registered_locked(parent, requests, body, std::move(args),
                           std::move(name), placement);
  drain_unblocked_locked();
  pump_locked();
  wake_event_loop();
}

void ClusterEngine::with_cont(TaskNode* task,
                              const std::vector<AccessRequest>& requests) {
  std::unique_lock<std::mutex> lock(mu_);
  for (const AccessRequest& r : requests)
    if (r.remove & access::kCommute)
      commute_.release_to(r.obj, task, token_handoff());
  const bool must_block = serializer_.update_spec(task, requests);
  drain_unblocked_locked();
  pump_locked();
  wake_event_loop();
  if (must_block) {
    root_cv_.wait(lock, [&] { return root_unblocked_ || aborting_; });
    root_unblocked_ = false;
    throw_if_aborting_locked();
  }
}

std::byte* ClusterEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                        std::uint8_t mode) {
  std::unique_lock<std::mutex> lock(mu_);
  JADE_ASSERT_MSG(task == serializer_.root(),
                  "coordinator-side accessor from a non-root task");
  throw_if_aborting_locked();
  // The root never blocks here: the serializer either admits the access
  // (no conflicting task records) or throws.
  const bool must_block = serializer_.acquire(task, obj, mode);
  JADE_ASSERT(!must_block);
  if (mode & access::kCommute) {
    // No conflicting records exist (or acquire would have thrown), so no
    // task can hold the token.
    const bool got = commute_.try_acquire(obj, task);
    JADE_ASSERT_MSG(got, "commute token held with no conflicting records");
  }
  ObjectData& d = object_locked(obj);
  // The root writes the canonical bytes in place and has no bracketed
  // attempt, so every write acquisition opens a new data version: a stale
  // worker copy must never satisfy a later dispatch.
  if (mode & (access::kWrite | access::kCommute)) ++d.version;
  return d.bytes.data();
}

void ClusterEngine::charge(TaskNode* task, double units) {
  std::lock_guard<std::mutex> lock(mu_);
  task->charged_work += units;
  stats_.total_charged_work += units;
}

// --- failure handling -------------------------------------------------------

void ClusterEngine::handle_worker_death_locked(int s) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(s)];
  const MachineId w = slot.machine;
  slot.dead = true;
  slot.machine = -1;
  slot.channel->close();
  if (w < 0) return;  // a spare died; nothing was running there

  ++worker_deaths_;
  ++stats_.machine_crashes;
  if (tracer_.enabled())
    tracer_.instant_at(wall_now(), obs::Subsystem::kFt, "worker.death",
                       static_cast<std::uint64_t>(slot.pid), w);

  // The running attempt died with the process.
  TaskNode* victim = slot.running;
  slot.running = nullptr;
  if (victim != nullptr) {
    ++stats_.tasks_killed;
    stats_.wasted_charged_work += victim->charged_work;
    pending_.erase(victim);
    commute_.remove_waiter(victim);
    commute_.release_all(victim, token_handoff());
    const auto rec_it = recs_.find(victim);
    const bool restartable =
        rec_it != recs_.end() && rec_it->second.restartable;
    if (aborting_) {
      // Nothing to recover; the run is already failing.
    } else if (restartable) {
      // A pure leaf: rewind and requeue.  Its acquire-time data-version
      // bumps are remembered in rec.dirtied, so the re-run re-ships
      // payloads without double-bumping.
      serializer_.abort_attempt(victim);
      victim->assigned_machine = -1;
      ready_.push_front(victim);
      ++stats_.tasks_requeued;
    } else {
      abort_run_locked(std::make_exception_ptr(UnrecoverableError(
          "worker machine " + std::to_string(w) + " died while task '" +
          victim->name() +
          "' had visible effects (spawned children or ran a with-cont); "
          "the run cannot be transparently recovered")));
    }
  }

  // The machine's copies died with it.  The coordinator's canonical bytes
  // are the stable store, so forgetting them is the whole recovery: the
  // next grant to this machine id re-ships whatever it needs.
  for (ObjectData& d : data_) d.shipped[static_cast<std::size_t>(w)] = 0;

  // A pre-forked spare, if one is left, takes over the machine id.
  for (WorkerSlot& spare : slots_) {
    if (spare.machine != -1 || spare.dead || spare.eof || !spare.channel ||
        spare.channel->closed())
      continue;
    spare.machine = w;
    spare.channel->queue(FrameType::kActivate,
                         pack(ActivateMsg{w, options_.workers,
                                          options_.heartbeat_interval}));
    spare.channel->flush();
    detector_->heartbeat_received(w + 1, wall_now());
    ++workers_respawned_;
    if (tracer_.enabled())
      tracer_.instant_at(wall_now(), obs::Subsystem::kFt, "worker.respawn",
                         static_cast<std::uint64_t>(spare.pid), w);
    break;
  }

  bool any_up = false;
  for (const WorkerSlot& other : slots_)
    if (other.machine >= 0 && !other.dead && !other.eof) any_up = true;
  if (!any_up && !aborting_ &&
      (serializer_.outstanding() > 0 || !ready_.empty())) {
    abort_run_locked(std::make_exception_ptr(
        UnrecoverableError("every worker process died")));
  }
  pump_locked();
}

void ClusterEngine::abort_run_locked(std::exception_ptr error) {
  if (!first_error_) first_error_ = error;
  if (aborting_) {
    root_cv_.notify_all();
    return;
  }
  aborting_ = true;
  // Fail every parked RPC so blocked workers unwind their task bodies
  // (which report TaskError, idling their machines — the exit condition).
  for (auto& [task, rpc] : pending_) {
    const int s = slot_of_machine(rpc.worker);
    if (s < 0) continue;
    refuse_locked(*slots_[static_cast<std::size_t>(s)].channel, rpc.kind, task,
                  rpc.obj, UnrecoverableError("run aborted"));
    commute_.remove_waiter(task);
  }
  pending_.clear();
  root_cv_.notify_all();
  wake_event_loop();
}

void ClusterEngine::throw_if_aborting_locked() const {
  if (!aborting_) return;
  if (first_error_) std::rethrow_exception(first_error_);
  throw UnrecoverableError("run aborted");
}

void ClusterEngine::refuse_locked(Channel& ch, PendingRpc::Kind kind,
                                  TaskNode* task, ObjectId obj,
                                  const std::exception& why) {
  auto refuse = [&](auto nak, FrameType type) {
    nak.task = task->id();
    nak.ok = false;
    nak.error_code = classify_error(why);
    nak.error = why.what();
    ch.queue(type, pack(nak));
  };
  if (kind == PendingRpc::Kind::kAcquire) {
    AcquireAckMsg nak;
    nak.obj = obj;
    refuse(std::move(nak), FrameType::kAcquireAck);
  } else {
    refuse(WithContAckMsg{}, FrameType::kWithContAck);
  }
}

// --- introspection ----------------------------------------------------------

pid_t ClusterEngine::worker_pid(MachineId m) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int s = slot_of_machine(m);
  return s < 0 ? -1 : slots_[static_cast<std::size_t>(s)].pid;
}

bool ClusterEngine::debug_probe(ObjectId obj) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!known_locked(obj)) return true;  // no copy anywhere: nothing to check
  const ObjectData& d = data_[obj - 1];
  int s = -1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const WorkerSlot& slot = slots_[i];
    if (slot.machine >= 0 && !slot.dead && !slot.eof && slot.channel &&
        !slot.channel->closed() && d.current_on(slot.machine)) {
      s = static_cast<int>(i);
      break;
    }
  }
  if (s < 0) return true;  // no worker claims a current copy: nothing to check
  Channel& ch = *slots_[static_cast<std::size_t>(s)].channel;
  ObjFetchMsg req;
  req.obj = obj;
  ch.queue(FrameType::kObjFetch, pack(req));
  const double deadline = wall_now() + 10.0;
  while (wall_now() < deadline) {
    if (!ch.flush()) return false;
    pollfd p{ch.fd(), POLLIN, 0};
    ::poll(&p, 1, 50);
    std::vector<Frame> frames;
    if (!ch.drain(frames)) return false;
    for (const Frame& f : frames) {
      if (f.type == FrameType::kHeartbeat) {
        const HeartbeatMsg hb = unpack<HeartbeatMsg>(f.payload);
        detector_->heartbeat_received(hb.machine + 1, wall_now());
      } else if (f.type == FrameType::kObjData) {
        const ObjDataMsg data = unpack<ObjDataMsg>(f.payload);
        if (data.obj != obj) continue;
        return data.payload == d.bytes;
      }
    }
  }
  return false;  // probe timed out
}

}  // namespace jade::cluster
