// Runtime — the public entry point of the library.
//
// A Runtime owns an execution engine, lets the host program allocate and
// initialize shared objects, runs a Jade program (a root body that creates
// tasks with withonly), and reads results back.  The same program runs
// unmodified on any engine/platform — the paper's portability claim:
// "Programs written in Jade run on all of these platforms without
// modification."
//
//   jade::RuntimeConfig cfg;
//   cfg.engine = jade::EngineKind::kSim;
//   cfg.cluster = jade::presets::mica(8);
//   jade::Runtime rt(cfg);
//   auto v = rt.alloc<double>(1024, "v");
//   rt.run([&](jade::TaskContext& ctx) {
//     ctx.withonly([&](jade::AccessDecl& d) { d.rd_wr(v); },
//                  [=](jade::TaskContext& t) { ... t.read_write(v) ... });
//   });
//   std::vector<double> result = rt.get(v);
#pragma once

#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "jade/cluster/options.hpp"
#include "jade/core/object.hpp"
#include "jade/core/task.hpp"
#include "jade/engine/engine.hpp"
#include "jade/ft/fault_plan.hpp"
#include "jade/mach/machine.hpp"
#include "jade/sched/policies.hpp"

namespace jade {

enum class EngineKind : std::uint8_t {
  kSerial,   ///< reference implementation of the serial semantics
  kThread,   ///< shared-memory worker pool (real parallelism)
  kSim,      ///< virtual-time simulated cluster (the evaluation platform)
  kCluster,  ///< multi-process cluster: forked workers over Unix sockets
};

struct RuntimeConfig {
  EngineKind engine = EngineKind::kSerial;

  /// ThreadEngine: worker count.
  int threads = 4;

  /// SimEngine: the platform to simulate.
  ClusterConfig cluster;

  /// ClusterEngine: real worker processes (docs/CLUSTER.md).  Task bodies
  /// must be registered (jade::cluster::BodyRegistry) to cross the process
  /// boundary.
  cluster::Options cluster_proc;

  /// Scheduling policy (SimEngine; ClusterEngine uses locality and
  /// throttle; ThreadEngine uses throttle only).
  SchedPolicy sched;

  /// Policy planning (docs/MODEL.md).  Before the engine is built,
  /// `planner->plan_policy(cluster, sched)` resolves the run's effective
  /// SchedPolicy; null runs `sched` as set.
  std::shared_ptr<const Planner> planner;

  /// Fault injection & recovery (SimEngine on message-passing platforms
  /// only; see docs/FAULT_TOLERANCE.md).  Disabled by default.
  FaultConfig fault;

  /// Observability (src/jade/obs): structured tracing, Chrome-trace export.
  /// Off by default and zero-cost when off; see docs/OBSERVABILITY.md.
  ObsConfig obs;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Allocates a zero-initialized shared array of `count` T's.  `home`
  /// places the initial copy on a simulated machine (-1: round-robin).
  template <typename T>
  SharedRef<T> alloc(std::size_t count, std::string name = "",
                     MachineId home = -1) {
    static_assert(std::is_trivially_copyable_v<T>);
    const ObjectId id = engine_->allocate(
        TypeDescriptor::array_of<T>(count), std::move(name), home);
    return SharedRef<T>(id, count);
  }

  /// Allocates and initializes in one step.
  template <typename T>
  SharedRef<T> alloc_init(std::span<const T> data, std::string name = "",
                          MachineId home = -1) {
    SharedRef<T> ref = alloc<T>(data.size(), std::move(name), home);
    put(ref, data);
    return ref;
  }

  /// Host-side write of an object's contents (outside run()).
  template <typename T>
  void put(const SharedRef<T>& ref, std::span<const T> data) {
    engine_->put_bytes(ref.id(),
                       {reinterpret_cast<const std::byte*>(data.data()),
                        data.size() * sizeof(T)});
  }

  /// Host-side read of an object's contents (outside run()).
  template <typename T>
  std::vector<T> get(const SharedRef<T>& ref) {
    std::vector<std::byte> raw = engine_->get_bytes(ref.id());
    JADE_ASSERT(raw.size() == ref.byte_size());
    std::vector<T> out(ref.count());
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Runs a Jade program to completion (the root body is the paper's
  /// "original task that starts the program execution").
  void run(std::function<void(TaskContext&)> root_body);

  const RuntimeStats& stats() const { return engine_->stats(); }

  /// Virtual seconds the program took (SimEngine; 0 for other engines).
  SimTime sim_duration() const { return engine_->stats().finish_time; }

  int machine_count() const { return engine_->machine_count(); }

  Engine& engine() { return *engine_; }
  const RuntimeConfig& config() const { return config_; }

  // --- observability (src/jade/obs) ----------------------------------------

  /// The metrics registry (always available; engines publish the canonical
  /// counter set at the end of run()).
  obs::MetricsRegistry& metrics() { return engine_->metrics(); }
  const obs::MetricsRegistry& metrics() const { return engine_->metrics(); }

  /// The trace recorder, or nullptr when config.obs.trace is off.
  const obs::TraceRecorder* trace() const { return engine_->trace(); }

  /// Snapshot of the recorded events (empty when tracing is off).
  std::vector<obs::TraceEvent> trace_events() const;

  /// Exports the recorded trace in Chrome trace-event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev).  Throws ConfigError when
  /// tracing was not enabled.
  void write_chrome_trace(std::ostream& out) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  RuntimeConfig config_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace jade
