#include "jade/mach/machine.hpp"

#include "jade/support/error.hpp"

namespace jade {

std::unique_ptr<NetworkModel> ClusterConfig::make_network() const {
  const int n = machine_count();
  switch (net) {
    case NetKind::kSharedMemory:
      // Shared-memory platforms never schedule transfers; a zero-cost ideal
      // net stands in so the engine code path stays uniform.
      return std::make_unique<IdealNet>(0.0, 1e18);
    case NetKind::kSharedBus:
      return std::make_unique<SharedBusNet>(bus);
    case NetKind::kHypercube:
      return std::make_unique<PointToPointNet>(Topology::kHypercube, n, cube);
    case NetKind::kCrossbar:
      return std::make_unique<PointToPointNet>(Topology::kCrossbar, n, xbar);
    case NetKind::kMesh:
      return std::make_unique<PointToPointNet>(Topology::kMesh, n, mesh);
    case NetKind::kIdeal:
      return std::make_unique<IdealNet>(ideal.latency,
                                        ideal.bytes_per_second);
  }
  throw ConfigError("unknown NetKind");
}

void ClusterConfig::validate() const {
  if (machines.empty())
    throw ConfigError("cluster '" + name + "' has no machines");
  if (machines.size() > static_cast<std::size_t>(kMaxMachines))
    throw ConfigError("cluster '" + name + "' has more than " +
                      std::to_string(kMaxMachines) +
                      " machines (kMaxMachines sanity ceiling)");
  for (const MachineDesc& m : machines)
    if (m.ops_per_second <= 0)
      throw ConfigError("machine '" + m.name +
                        "' has non-positive ops_per_second");
  if (task_dispatch_overhead < 0 || task_create_overhead < 0 ||
      conversion_seconds_per_scalar < 0)
    throw ConfigError("cluster '" + name + "' has negative overhead");
}

}  // namespace jade
