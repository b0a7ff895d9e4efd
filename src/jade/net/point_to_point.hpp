// Point-to-point network model — the switched interconnects.
//
// The Intel iPSC/860 connected its nodes in a binary hypercube with
// wormhole-style routing; the era's other major topology was the 2-D mesh
// (the DASH prototype's remote-access fabric, Paragon, the Cray T3D); the
// HRV workstation joined its SPARC and i860 units through a high-speed
// switch, modelled as a non-blocking crossbar.  All three share one timing
// rule: different machine pairs communicate concurrently, and the
// serializing resource is each machine's network interface, which handles
// one send and one receive at a time.  They differ only in route length:
//   hypercube  popcount(from ^ to) hops (the XOR metric on node indices;
//              `machines` need not be a power of two),
//   mesh       |dx| + |dy| hops (dimension-order XY routing) on a grid
//              ceil(sqrt(machines)) wide,
//   crossbar   one hop through the switch.
#pragma once

#include <cstdint>
#include <vector>

#include "jade/net/network.hpp"

namespace jade {

enum class Topology : std::uint8_t { kHypercube, kMesh, kCrossbar };

/// One platform's link constants (ClusterConfig holds each preset's).
struct LinkConfig {
  /// Sender NIC occupancy per message (software + DMA setup), seconds.
  SimTime startup = 0;
  /// Route latency per hop, seconds.
  SimTime per_hop = 0;
  /// Link bandwidth, bytes/second.
  double bytes_per_second = 0;
};

class PointToPointNet : public NetworkModel {
 public:
  PointToPointNet(Topology topology, int machines, LinkConfig link);

  std::string name() const override;
  void reset() override;

  int hop_count(MachineId from, MachineId to) const;
  /// Machines per mesh row.
  int width() const { return width_; }

 protected:
  SimTime transfer_impl(MachineId from, MachineId to, std::size_t bytes,
                        SimTime now) override;

  /// A spanning tree along disjoint links (the switch replicates to every
  /// output port): the sender NIC pays startup + transmit once; each
  /// destination then pays its own route latency and receiver NIC.
  SimTime multicast_impl(MachineId from, std::span<const MachineId> tos,
                         std::size_t bytes, SimTime now) override;

 private:
  /// Occupies `from`'s NIC for startup + transmit; returns when the tail
  /// leaves it.
  SimTime send(MachineId from, std::size_t bytes, SimTime now);
  /// The tail reaches `to` one route latency after it left `from`; `to`'s
  /// NIC drains one inbound message at a time.  Returns the arrival.
  SimTime deliver(MachineId from, MachineId to, SimTime sent);

  Topology topology_;
  LinkConfig link_;
  int width_;
  std::vector<SimTime> send_busy_until_;
  std::vector<SimTime> recv_busy_until_;
};

}  // namespace jade
