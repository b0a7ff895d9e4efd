#include "jade/core/runtime.hpp"

#include "jade/cluster/cluster_engine.hpp"
#include "jade/engine/serial_engine.hpp"
#include "jade/engine/sim_engine.hpp"
#include "jade/engine/thread_engine.hpp"
#include "jade/obs/chrome_trace.hpp"
#include "jade/support/error.hpp"

namespace jade {

namespace {
std::unique_ptr<Engine> make_engine(const RuntimeConfig& config) {
  // A planner resolves the run's effective SchedPolicy for this
  // (platform, base-knobs) pair once, before the engine sees it
  // (docs/MODEL.md).
  const SchedPolicy sched =
      config.planner ? config.planner->plan_policy(config.cluster, config.sched)
                     : config.sched;
  switch (config.engine) {
    case EngineKind::kSerial:
      return std::make_unique<SerialEngine>();
    case EngineKind::kThread:
      return std::make_unique<ThreadEngine>(config.threads, sched.throttle,
                                            sched.spec);
    case EngineKind::kSim:
      config.cluster.validate();
      return std::make_unique<SimEngine>(config.cluster, sched, config.fault);
    case EngineKind::kCluster:
      return std::make_unique<cluster::ClusterEngine>(config.cluster_proc,
                                                      sched);
  }
  throw ConfigError("unknown EngineKind");
}
}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), engine_(make_engine(config_)) {
  if (config_.obs.trace) engine_->enable_tracing(config_.obs);
}

Runtime::~Runtime() = default;

void Runtime::run(std::function<void(TaskContext&)> root_body) {
  engine_->run(std::move(root_body));
}

std::vector<obs::TraceEvent> Runtime::trace_events() const {
  const obs::TraceRecorder* rec = engine_->trace();
  return rec != nullptr ? rec->snapshot() : std::vector<obs::TraceEvent>{};
}

void Runtime::write_chrome_trace(std::ostream& out) const {
  const obs::TraceRecorder* rec = engine_->trace();
  if (rec == nullptr)
    throw ConfigError(
        "write_chrome_trace: tracing is off (set RuntimeConfig::obs.trace)");
  const std::vector<obs::TraceEvent> events = rec->snapshot();
  obs::write_chrome_trace(out, events);
}

void Runtime::write_chrome_trace(const std::string& path) const {
  const obs::TraceRecorder* rec = engine_->trace();
  if (rec == nullptr)
    throw ConfigError(
        "write_chrome_trace: tracing is off (set RuntimeConfig::obs.trace)");
  obs::write_chrome_trace_file(path, *rec);
}

}  // namespace jade
