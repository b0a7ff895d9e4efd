#include "jade/model/profiler.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "jade/mach/presets.hpp"
#include "jade/model/trace_reader.hpp"

namespace jade::model {

namespace {

constexpr double kProbeOps = 1.0e7;
/// Width of the critical-path probe.  Parallelism beyond this saturates the
/// estimate at total_work / kWideMachines (still an upper bound on
/// per-machine serialization, so predictions stay sane).
constexpr int kWideMachines = 256;

/// Contention-free shared-memory platform wide enough that tasks almost
/// never wait for a machine: completion time ≈ critical path.
ClusterConfig wide_platform() {
  ClusterConfig c;
  c.name = "profile-wide";
  c.net = NetKind::kSharedMemory;
  MachineDesc m;
  m.kind = MachineKind::kCpu;
  m.ops_per_second = kProbeOps;
  for (int i = 0; i < kWideMachines; ++i) {
    m.name = "wide" + std::to_string(i);
    c.machines.push_back(m);
  }
  c.task_dispatch_overhead = 0;
  c.task_create_overhead = 0;
  return c;
}

RuntimeConfig sim_config(ClusterConfig cluster) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = std::move(cluster);
  return cfg;
}

}  // namespace

WorkloadFeatures profile_workload(const WorkloadFn& workload,
                                  const ProfileOptions& opts) {
  WorkloadFeatures f;

  // 1. Wide probe: the dependence-chain floor.
  {
    RuntimeConfig cfg = sim_config(wide_platform());
    cfg.sched.contexts_per_machine = 2;
    Runtime rt(cfg);
    workload(rt);
    f.critical_path_work = rt.stats().finish_time * kProbeOps;
  }

  // 2. Comm profile: graph shape + locality-placed data demand, extracted
  // from the Chrome-trace export the way an archived BENCH trace would be.
  double comm_finish = 0;
  {
    RuntimeConfig cfg = sim_config(presets::ideal(opts.machines));
    cfg.obs.trace = true;
    Runtime rt(cfg);
    workload(rt);
    std::stringstream trace_json;
    rt.write_chrome_trace(trace_json);
    const std::vector<obs::TraceEvent> events =
        read_chrome_trace(trace_json);
    const RunProfile p = extract_profile(events, rt.stats());
    f.tasks = p.tasks;
    f.total_work = p.total_work;
    f.mean_grain = p.mean_grain;
    f.max_grain = p.max_grain;
    f.fanout = p.fanout;
    f.root_fanout = p.root_fanout;
    f.max_queue_depth = p.max_queue_depth;
    f.payload_bytes = p.payload_bytes;
    f.messages = p.messages;
    comm_finish = p.finish_time;
  }

  // 3. Locality off: what load-balancing-only placement would move.
  {
    RuntimeConfig cfg = sim_config(presets::ideal(opts.machines));
    cfg.sched.locality = false;
    Runtime rt(cfg);
    workload(rt);
    f.payload_bytes_nolocal = static_cast<double>(rt.stats().payload_bytes);
    f.messages_nolocal = static_cast<double>(rt.stats().messages);
  }

  // 4. Spec probe: does run-ahead shorten the conservative chains here?
  if (opts.probe_speculation) {
    RuntimeConfig cfg = sim_config(presets::ideal(opts.machines));
    cfg.sched.spec.enabled = true;
    Runtime rt(cfg);
    workload(rt);
    const double spec_finish = rt.stats().finish_time;
    f.spec_speedup = (rt.stats().spec_committed > 0 && spec_finish > 0)
                         ? comm_finish / spec_finish
                         : 1.0;
  }

  if (f.critical_path_work > 0)
    f.avg_parallelism = f.total_work / f.critical_path_work;
  f.valid = true;
  return f;
}

}  // namespace jade::model
