#include "jade/net/point_to_point.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "jade/support/error.hpp"

namespace jade {

PointToPointNet::PointToPointNet(Topology topology, int machines,
                                 LinkConfig link)
    : topology_(topology),
      link_(link),
      width_(static_cast<int>(std::ceil(std::sqrt(machines)))),
      send_busy_until_(static_cast<std::size_t>(machines), 0),
      recv_busy_until_(static_cast<std::size_t>(machines), 0) {
  JADE_ASSERT(machines > 0);
}

std::string PointToPointNet::name() const {
  switch (topology_) {
    case Topology::kHypercube:
      return "hypercube";
    case Topology::kMesh:
      return "mesh";
    case Topology::kCrossbar:
      return "crossbar";
  }
  return "point-to-point";
}

int PointToPointNet::hop_count(MachineId from, MachineId to) const {
  switch (topology_) {
    case Topology::kHypercube:
      return std::popcount(static_cast<unsigned>(from) ^
                           static_cast<unsigned>(to));
    case Topology::kMesh:
      return std::abs(from % width_ - to % width_) +
             std::abs(from / width_ - to / width_);
    case Topology::kCrossbar:
      return 1;
  }
  return 1;
}

SimTime PointToPointNet::send(MachineId from, std::size_t bytes,
                              SimTime now) {
  JADE_ASSERT(from >= 0 &&
              static_cast<std::size_t>(from) < send_busy_until_.size());
  const SimTime transmit =
      static_cast<SimTime>(bytes) / link_.bytes_per_second;
  SimTime& busy = send_busy_until_[static_cast<std::size_t>(from)];
  busy = std::max(now, busy) + link_.startup + transmit;
  record(bytes, link_.startup + transmit);
  return busy;
}

SimTime PointToPointNet::deliver(MachineId from, MachineId to, SimTime sent) {
  JADE_ASSERT(to >= 0 && to != from &&
              static_cast<std::size_t>(to) < recv_busy_until_.size());
  SimTime& busy = recv_busy_until_[static_cast<std::size_t>(to)];
  busy = std::max(sent + link_.per_hop * hop_count(from, to), busy);
  return busy;
}

SimTime PointToPointNet::transfer_impl(MachineId from, MachineId to,
                                       std::size_t bytes, SimTime now) {
  if (from == to) return now;
  return deliver(from, to, send(from, bytes, now));
}

SimTime PointToPointNet::multicast_impl(MachineId from,
                                        std::span<const MachineId> tos,
                                        std::size_t bytes, SimTime now) {
  const SimTime sent = send(from, bytes, now);
  SimTime last = now;
  for (MachineId to : tos) last = std::max(last, deliver(from, to, sent));
  return last;
}

void PointToPointNet::reset() {
  std::fill(send_busy_until_.begin(), send_busy_until_.end(), 0.0);
  std::fill(recv_busy_until_.begin(), recv_busy_until_.end(), 0.0);
  stats_.reset();
}

}  // namespace jade
