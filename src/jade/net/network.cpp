#include "jade/net/network.hpp"

#include "jade/support/error.hpp"

namespace jade {

IdealNet::IdealNet(SimTime latency, double bytes_per_second)
    : latency_(latency), bandwidth_(bytes_per_second) {
  JADE_ASSERT(bytes_per_second > 0);
}

SimTime IdealNet::transfer_impl(MachineId from, MachineId to,
                                std::size_t bytes, SimTime now) {
  if (from == to) return now;
  const SimTime transmit = static_cast<SimTime>(bytes) / bandwidth_;
  record(bytes, transmit);
  return now + latency_ + transmit;
}

}  // namespace jade
