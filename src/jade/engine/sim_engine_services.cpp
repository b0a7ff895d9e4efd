// SimEngine service wiring: the adapters that plug the engine-agnostic
// runtime services (store/coherence.hpp, ft/recovery_coordinator.hpp) into
// the simulated platform, and the constructor that assembles them.  The
// engine's lifecycle logic lives in sim_engine.cpp.
#include "jade/engine/sim_engine.hpp"

#include "jade/net/faulty.hpp"
#include "jade/support/error.hpp"

namespace jade {

// --- service adapters -------------------------------------------------------

/// The coherence protocol's transport: the simulation clock plus the
/// (possibly fault-decorated) network model.  Every protocol message goes
/// through network_, so the seeded drop stream is consumed in the same
/// order as always.
struct SimEngine::Transport final : CoherenceTransport {
  explicit Transport(SimEngine& engine) : e(engine) {}

  SimTime now() const override { return e.sim_.now(); }
  SimTime unicast(MachineId from, MachineId to, std::size_t bytes,
                  SimTime at) override {
    return e.network_->schedule_transfer(from, to, bytes, at);
  }
  SimTime multicast(MachineId from, std::span<const MachineId> targets,
                    std::size_t bytes, SimTime at) override {
    return e.network_->schedule_multicast(from, targets, bytes, at);
  }

  SimEngine& e;
};

/// Engine mechanism driven by the recovery coordinator: event scheduling,
/// the drained test, and the task/context machinery around crash handling.
struct SimEngine::FtHooks final : RecoveryHooks {
  explicit FtHooks(SimEngine& engine) : e(engine) {}

  void schedule_at(SimTime when, std::function<void()> fn) override {
    e.sim_.schedule(when, std::move(fn));
  }
  void schedule_in(SimTime delay, std::function<void()> fn) override {
    e.sim_.schedule_in(delay, std::move(fn));
  }
  bool drained() const override {
    return e.root_done_ && e.serializer_.outstanding() == 0;
  }
  void mark_machine_dark(MachineId m) override {
    e.machines_[static_cast<std::size_t>(m)].free_contexts = 0;
    // Speculations die with the machine, before the restartable-victims
    // scan: a speculating task is kPending, not a normal attempt, and its
    // shadow buffers never outlive their host.
    e.abort_speculations_on(m);
  }
  std::vector<TaskNode*> restartable_victims(MachineId m) override {
    // Creation order (deterministic): sim_tasks_ appends at spawn.
    std::vector<TaskNode*> victims;
    for (SimTask& t : e.sim_tasks_) {
      if (t.machine != m || !t.attempt.restartable) continue;
      if (t.node->state() == TaskState::kCompleted) continue;
      if (t.process == nullptr ||
          t.process->state() == Process::State::kDone ||
          t.process->abandoned())
        continue;
      victims.push_back(t.node);
    }
    return victims;
  }
  AttemptState& attempt_state(TaskNode* task) override {
    return e.st(task).attempt;
  }
  void abort_attempt_execution(TaskNode* task) override {
    e.abort_attempt_execution(task);
  }
  void wake_context_waiters(MachineId m) override {
    auto& waiters = e.machines_[static_cast<std::size_t>(m)].context_waiters;
    while (!waiters.empty()) {
      TaskNode* next = waiters.front();
      waiters.pop_front();
      e.resume(next);
    }
  }
  void requeue_task(TaskNode* task) override { e.ready_.push_back(task); }
  void resume_task(TaskNode* task) override { e.resume(task); }
  void release_throttled() override { e.maybe_release_throttled(); }
  void after_recovery() override {
    e.try_dispatch();
    e.maybe_release_throttled();
  }

  SimEngine& e;
};

// --- construction -----------------------------------------------------------

SimEngine::SimEngine(ClusterConfig cluster, SchedPolicy sched,
                     FaultConfig fault)
    : Engine(sched.throttle),
      cluster_(std::move(cluster)),
      sched_(sched),
      network_(cluster_.make_network()),
      directory_(cluster_.machine_count()),
      spec_(sched_.spec, serializer_, *this, stats_, tracer_) {
  cluster_.validate();
  if (sched_.contexts_per_machine < 1)
    throw ConfigError("contexts_per_machine must be >= 1");
  // With replica reuse on, a dropped-but-current replica is as good as a
  // present one for the locality heuristics.
  directory_.set_reuse_scoring(sched_.optimized_comm);
  machines_.reserve(cluster_.machines.size());
  for (const MachineDesc& desc : cluster_.machines) {
    Machine m;
    m.desc = desc;
    m.free_contexts = sched_.contexts_per_machine;
    machines_.push_back(std::move(m));
  }

  transport_ = std::make_unique<Transport>(*this);
  std::vector<Endian> endians;
  endians.reserve(machines_.size());
  for (const Machine& m : machines_) endians.push_back(m.desc.endian);
  CoherenceConfig ccfg;
  ccfg.optimized_comm = sched_.optimized_comm;
  ccfg.control_message_bytes = cluster_.control_message_bytes;
  ccfg.conversion_seconds_per_scalar = cluster_.conversion_seconds_per_scalar;
  coherence_ = std::make_unique<CoherenceProtocol>(
      *transport_, directory_, objects(), std::move(endians), ccfg, stats_,
      &tracer_);

  if (fault.enabled) {
    if (cluster_.shared_memory())
      throw ConfigError(
          "fault injection requires a message-passing platform: on shared "
          "memory there is no network to lose messages on and no per-machine "
          "object copies to recover");
    ft_hooks_ = std::make_unique<FtHooks>(*this);
    ft_ = std::make_unique<RecoveryCoordinator>(
        fault, machine_count(), *ft_hooks_, *transport_, directory_,
        *coherence_, stats_, tracer_, cluster_.control_message_bytes);
    FaultyNetConfig net_cfg;
    net_cfg.initial_retry_timeout = fault.initial_retry_timeout;
    net_cfg.max_retry_timeout = fault.max_retry_timeout;
    net_cfg.max_send_attempts = fault.max_send_attempts;
    auto faulty = std::make_unique<FaultyNetwork>(
        std::move(network_), net_cfg,
        [this](MachineId from, MachineId to) {
          return ft_->injector().should_drop(from, to);
        });
    faulty_net_ = faulty.get();
    network_ = std::move(faulty);
  }

  queue_wait_hist_ = &metrics_.histogram("engine.task_queue_wait");
  fetch_wait_hist_ = &metrics_.histogram("engine.fetch_wait");
  exec_hist_ = &metrics_.histogram("engine.task_execution");
}

SimTime SimEngine::trace_now() const { return sim_.now(); }

void SimEngine::enable_tracing(const ObsConfig& cfg) {
  Engine::enable_tracing(cfg);
  obs::Tracer* t = cfg.trace ? &tracer_ : nullptr;
  network_->set_observer(t, cfg.trace ? &metrics_ : nullptr);
  directory_.set_observer(t, [this] { return sim_.now(); });
}

SimEngine::~SimEngine() = default;

}  // namespace jade
