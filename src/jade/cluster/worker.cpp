#include "jade/cluster/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "jade/cluster/channel.hpp"
#include "jade/cluster/frame.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/engine/engine.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {
namespace {

/// Engine facade inside a worker process.  One task runs at a time; every
/// serializer-relevant operation (acquire, with_cont, spawn) is a message to
/// the coordinator, and acquire and with_cont wait for its ack — except a
/// with_cont that only retires held rights, which can neither block nor
/// fail and travels one way.  Interleaved coordinator frames (object-fetch
/// probes) are served while waiting for an ack.  The serializer lives in
/// the coordinator, so this engine's stays empty.
class WorkerEngine : public Engine, public RegisteredSpawner {
 public:
  WorkerEngine(Channel& ch, MachineId machine, int machines)
      : ch_(ch), machine_(machine), machines_(machines) {}

  // --- per-object execution state -----------------------------------------
  struct ObjectState {
    std::uint8_t immediate = 0;
    std::uint8_t deferred = 0;
    std::uint64_t bytes = 0;
    bool cm_confirmed = false;  ///< commute token confirmed by an RPC
    bool wrote = false;         ///< local copy diverged; owes a writeback
  };

  /// Runs one dispatched task; sends Done or TaskError.
  void run_task(const DispatchMsg& msg) {
    task_id_ = msg.task;
    charged_ = 0;
    spawned_ = false;
    states_.clear();
    ship_order_.clear();
    for (const ObjectShip& s : msg.objects) {
      ObjectState st;
      st.immediate = s.immediate;
      st.deferred = s.deferred;
      st.bytes = s.bytes;
      states_[s.obj] = st;
      ship_order_.push_back(s.obj);
      auto& buf = bytes_[s.obj];
      if (s.has_payload)
        buf = s.payload;
      else if (buf.size() != s.bytes)
        buf.assign(s.bytes, std::byte{0});
    }

    TaskNode node;  // local stand-in; serializer state lives coordinator-side
    node.assigned_machine = machine_;
    TaskContext ctx(this, &node);
    try {
      WireReader args(msg.args);
      BodyRegistry::instance().body(msg.body)(ctx, args);
    } catch (const std::exception& e) {
      TaskErrorMsg err;
      err.task = task_id_;
      err.code = classify_error(e);
      err.what = e.what();
      if (!ch_.send(FrameType::kTaskError, pack(err))) _exit(0);
      return;
    }

    DoneMsg done;
    done.task = task_id_;
    done.charged = charged_;
    for (ObjectId obj : ship_order_) {
      const ObjectState& st = states_[obj];
      if (!st.wrote) continue;
      done.writes.push_back({obj, bytes_[obj]});
    }
    if (!ch_.send(FrameType::kDone, pack(done))) _exit(0);
  }

  /// Serves one coordinator-initiated frame (legal between tasks and while
  /// a task waits for an ack).  Returns false on Shutdown.
  bool serve(const Frame& f) {
    switch (f.type) {
      case FrameType::kObjFetch: {
        const auto req = unpack<ObjFetchMsg>(f.payload);
        ObjDataMsg reply;
        reply.obj = req.obj;
        auto it = bytes_.find(req.obj);
        if (it != bytes_.end()) reply.payload = it->second;
        if (!ch_.send(FrameType::kObjData, pack(reply))) _exit(0);
        return true;
      }
      case FrameType::kShutdown:
        return false;
      default:
        throw ProtocolError("worker received unexpected frame type " +
                            std::to_string(static_cast<int>(f.type)));
    }
  }

  // --- Engine interface ----------------------------------------------------

  // Objects live in the coordinator and a worker allocates none, so Engine's
  // checks already reject host-side object calls; these hooks refuse too.
  void create_storage(const ObjectInfo&, MachineId) override {
    throw ConfigError("cluster tasks cannot allocate shared objects");
  }
  void write_storage(ObjectId, std::span<const std::byte>) override {
    throw ConfigError("put_bytes is host-side only");
  }
  std::vector<std::byte> read_storage(ObjectId) override {
    throw ConfigError("get_bytes is host-side only");
  }
  void run(std::function<void(TaskContext&)>) override {
    throw ConfigError("run() is host-side only");
  }

  void spawn(TaskNode*, const std::vector<AccessRequest>&,
             TaskContext::BodyFn, std::string, MachineId,
             TenantCtl*) override {
    throw ConfigError(
        "cluster task bodies must create children with cluster::spawn "
        "(closures cannot cross process boundaries)");
  }

  void spawn_registered(TaskNode*, const std::vector<AccessRequest>& requests,
                        int body, std::vector<std::byte> args,
                        std::string name, MachineId placement) override {
    SpawnMsg msg;
    msg.parent = task_id_;
    msg.body = body;
    msg.name = std::move(name);
    msg.placement = placement;
    msg.args = std::move(args);
    // The child runs, serially, *at this point* inside the parent — it must
    // observe every byte the parent has written so far.  Flush the parent's
    // dirty copies of the objects the child declares; the payloads ride the
    // spawn message and land in the coordinator's canonical buffers before
    // the child can be dispatched anywhere.
    for (const AccessRequest& req : requests) {
      ReqMsg q;
      q.obj = req.obj;
      q.add_immediate = req.add_immediate;
      q.add_deferred = req.add_deferred;
      q.remove = req.remove;
      msg.requests.push_back(q);
    }
    // Dirty payloads travel as a zero-bit with-cont flush *ahead of* the
    // spawn (same socket, ordered delivery): the coordinator updates its
    // canonical buffers, so however it later places the child, the child
    // reads current bytes.
    WithContMsg wc;
    wc.task = task_id_;
    for (const AccessRequest& req : requests) {
      auto it = states_.find(req.obj);
      if (it == states_.end() || !it->second.wrote) continue;
      WithContItem item;
      item.req.obj = req.obj;  // zero bits: pure payload flush
      item.has_payload = true;
      item.payload = bytes_[req.obj];
      wc.items.push_back(std::move(item));
      it->second.wrote = false;
    }
    if (!wc.items.empty()) {
      if (!ch_.send(FrameType::kWithCont, pack(wc))) _exit(0);
      const WithContAckMsg ack = await_with_cont_ack();
      if (!ack.ok) rethrow_error(ack.error_code, ack.error);
    }
    if (!ch_.send(FrameType::kSpawn, pack(msg))) _exit(0);
    spawned_ = true;
  }

  void with_cont(TaskNode*,
                 const std::vector<AccessRequest>& requests) override {
    WithContMsg msg;
    msg.task = task_id_;
    bool retire_only = true;
    for (const AccessRequest& req : requests) {
      retire_only = retire_only &&
                    (req.add_immediate | req.add_deferred) == 0 &&
                    states_.count(req.obj) != 0;
      WithContItem item;
      item.req.obj = req.obj;
      item.req.add_immediate = req.add_immediate;
      item.req.add_deferred = req.add_deferred;
      item.req.remove = req.remove;
      // Retiring a write/commute right publishes the final bytes: the
      // successor the retirement unblocks will read the coordinator's
      // canonical copy.
      auto it = states_.find(req.obj);
      if ((req.remove & (access::kWrite | access::kCommute)) != 0 &&
          it != states_.end() && it->second.wrote) {
        item.has_payload = true;
        item.payload = bytes_[req.obj];
        it->second.wrote = false;
      }
      msg.items.push_back(std::move(item));
    }
    if (retire_only) {
      // Removing bits from a declared record cannot block or fail, so the
      // rights go here at once and nothing waits for the coordinator.  An
      // undeclared object keeps the RPC and its SpecUpdateError.
      if (!ch_.send(FrameType::kRetire, pack(msg))) _exit(0);
      for (const AccessRequest& req : requests) {
        ObjectState& st = states_[req.obj];
        st.immediate &= static_cast<std::uint8_t>(~req.remove);
        st.deferred &= static_cast<std::uint8_t>(~req.remove);
        if ((st.immediate & access::kCommute) == 0) st.cm_confirmed = false;
      }
      return;
    }
    if (!ch_.send(FrameType::kWithCont, pack(msg))) _exit(0);
    const WithContAckMsg ack = await_with_cont_ack();
    if (!ack.ok) rethrow_error(ack.error_code, ack.error);
    for (const ObjectShip& s : ack.objects) {
      auto& st = states_[s.obj];
      st.immediate = s.immediate;
      st.deferred = s.deferred;
      st.bytes = s.bytes;
      if ((s.immediate & access::kCommute) == 0) st.cm_confirmed = false;
      if (s.has_payload) {
        bytes_[s.obj] = s.payload;
      } else {
        auto& buf = bytes_[s.obj];
        if (buf.size() != s.bytes) buf.assign(s.bytes, std::byte{0});
      }
      bool known = false;
      for (ObjectId o : ship_order_) known |= (o == s.obj);
      if (!known) ship_order_.push_back(s.obj);
    }
  }

  std::byte* acquire_bytes(TaskNode*, ObjectId obj,
                           std::uint8_t mode) override {
    auto it = states_.find(obj);
    // Fast path: the right is held immediately, no commute token is pending
    // confirmation, and the task has not spawned children (a child's record
    // sits ahead of the parent's, so post-spawn accesses must consult the
    // serializer).
    const bool covered =
        it != states_.end() && (it->second.immediate & mode) == mode;
    const bool cm_ok = (mode & access::kCommute) == 0 ||
                       (it != states_.end() && it->second.cm_confirmed);
    if (covered && cm_ok && !spawned_) {
      if (mode & (access::kWrite | access::kCommute)) it->second.wrote = true;
      return bytes_[obj].data();
    }

    AcquireMsg msg;
    msg.task = task_id_;
    msg.obj = obj;
    msg.mode = mode;
    if (!ch_.send(FrameType::kAcquire, pack(msg))) _exit(0);
    for (;;) {
      std::optional<Frame> f = ch_.recv();
      if (!f) _exit(0);
      if (f->type == FrameType::kAcquireAck) {
        const auto ack = unpack<AcquireAckMsg>(f->payload);
        if (ack.task != task_id_ || ack.obj != obj)
          throw ProtocolError("acquire ack for the wrong task/object");
        if (!ack.ok) rethrow_error(ack.error_code, ack.error);
        auto& st = states_[obj];
        st.immediate |= mode;
        if (ack.has_payload) bytes_[obj] = ack.payload;
        if (mode & access::kCommute) st.cm_confirmed = true;
        if (mode & (access::kWrite | access::kCommute)) st.wrote = true;
        auto bit = bytes_.find(obj);
        JADE_ASSERT_MSG(bit != bytes_.end() && !bit->second.empty(),
                        "acquire granted with no local bytes");
        return bit->second.data();
      }
      if (!serve(*f)) _exit(0);
    }
  }

  void charge(TaskNode*, double units) override { charged_ += units; }
  int machine_count() const override { return machines_; }

 private:
  WithContAckMsg await_with_cont_ack() {
    for (;;) {
      std::optional<Frame> f = ch_.recv();
      if (!f) _exit(0);
      if (f->type == FrameType::kWithContAck) {
        auto ack = unpack<WithContAckMsg>(f->payload);
        if (ack.task != task_id_)
          throw ProtocolError("with-cont ack for the wrong task");
        return ack;
      }
      if (!serve(*f)) _exit(0);
    }
  }

  Channel& ch_;
  MachineId machine_;
  int machines_;
  /// Worker-global object bytes, never evicted.  Vector heap storage is
  /// pointer-stable across map rehashes, so accessor pointers survive later
  /// insertions.
  std::unordered_map<ObjectId, std::vector<std::byte>> bytes_;
  std::unordered_map<ObjectId, ObjectState> states_;  ///< current task only
  std::vector<ObjectId> ship_order_;  ///< deterministic writeback order
  std::uint64_t task_id_ = 0;
  double charged_ = 0;
  bool spawned_ = false;
};

/// Heartbeat sender: one frame per interval until stopped.
class Heartbeat {
 public:
  Heartbeat(Channel& ch, MachineId machine, double interval)
      : thread_([this, &ch, machine, interval] {
          std::uint64_t seq = 0;
          std::unique_lock<std::mutex> lock(mu_);
          while (!stop_) {
            lock.unlock();
            HeartbeatMsg hb;
            hb.machine = machine;
            hb.seq = seq++;
            if (!ch.send(FrameType::kHeartbeat, pack(hb))) break;
            lock.lock();
            cv_.wait_for(lock,
                         std::chrono::duration<double>(interval),
                         [this] { return stop_; });
          }
        }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void worker_main(int fd) {
  // The coordinator may vanish at any moment; writes to a dead socket must
  // return EPIPE, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  Channel ch(fd);
  HelloMsg hello;
  hello.pid = static_cast<std::int64_t>(::getpid());
  if (!ch.send(FrameType::kHello, pack(hello))) _exit(0);

  // Wait for activation; spares sit here until a worker dies (or shutdown).
  ActivateMsg act;
  for (;;) {
    std::optional<Frame> f = ch.recv();
    if (!f) _exit(0);
    if (f->type == FrameType::kShutdown) _exit(0);
    if (f->type == FrameType::kActivate) {
      act = unpack<ActivateMsg>(f->payload);
      break;
    }
    // Anything else before activation is a coordinator bug.
    _exit(1);
  }

  WorkerEngine engine(ch, act.machine, act.machines);
  {
    Heartbeat heartbeat(ch, act.machine, act.heartbeat_interval);
    for (;;) {
      std::optional<Frame> f = ch.recv();
      if (!f) break;  // coordinator died or closed the link
      if (f->type == FrameType::kDispatch) {
        engine.run_task(unpack<DispatchMsg>(f->payload));
        continue;
      }
      if (!engine.serve(*f)) break;  // Shutdown
    }
  }  // joins the heartbeat thread
  _exit(0);
}

}  // namespace jade::cluster
