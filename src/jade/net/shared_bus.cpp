#include "jade/net/shared_bus.hpp"

#include <algorithm>

namespace jade {

SharedBusNet::SharedBusNet(SharedBusConfig config) : config_(config) {}

SimTime SharedBusNet::transfer_impl(MachineId from, MachineId to,
                                    std::size_t bytes, SimTime now) {
  if (from == to) return now;  // local delivery bypasses the wire
  const SimTime start = std::max(now, busy_until_);
  const SimTime occupancy = config_.per_message_overhead +
                            static_cast<SimTime>(bytes) /
                                config_.bytes_per_second;
  busy_until_ = start + occupancy;
  record(bytes, occupancy);
  return busy_until_ + config_.latency;
}

SimTime SharedBusNet::multicast_impl(MachineId from,
                                     std::span<const MachineId> tos,
                                     std::size_t bytes, SimTime now) {
  return transfer_impl(from, tos.front(), bytes, now);
}

void SharedBusNet::reset() {
  busy_until_ = 0;
  stats_.reset();
}

}  // namespace jade
