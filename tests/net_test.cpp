// Unit tests for the interconnect cost models: latency/bandwidth math,
// contention (bus serialization, NIC occupancy) and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "jade/mach/presets.hpp"
#include "jade/net/network.hpp"
#include "jade/net/point_to_point.hpp"
#include "jade/net/shared_bus.hpp"

namespace jade {
namespace {

TEST(IdealNet, LatencyPlusBandwidth) {
  IdealNet net(1e-3, 1e6);
  // 1000 bytes at 1 MB/s = 1 ms transmit + 1 ms latency.
  EXPECT_DOUBLE_EQ(net.schedule_transfer(0, 1, 1000, 0.0), 2e-3);
  // No contention: a simultaneous transfer costs the same.
  EXPECT_DOUBLE_EQ(net.schedule_transfer(2, 3, 1000, 0.0), 2e-3);
}

TEST(IdealNet, LocalDeliveryFree) {
  IdealNet net(1e-3, 1e6);
  EXPECT_DOUBLE_EQ(net.schedule_transfer(1, 1, 12345, 5.0), 5.0);
}

TEST(IdealNet, StatsAccumulate) {
  IdealNet net(0, 1e6);
  net.schedule_transfer(0, 1, 500, 0.0);
  net.schedule_transfer(1, 2, 1500, 0.0);
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 2000u);
  net.reset();
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(SharedBus, SerializesConcurrentTransfers) {
  SharedBusConfig cfg;
  cfg.latency = 0;
  cfg.per_message_overhead = 0;
  cfg.bytes_per_second = 1e6;
  SharedBusNet net(cfg);
  // Two 1000-byte messages submitted at t=0: the second waits for the bus.
  const SimTime a = net.schedule_transfer(0, 1, 1000, 0.0);
  const SimTime b = net.schedule_transfer(2, 3, 1000, 0.0);
  EXPECT_DOUBLE_EQ(a, 1e-3);
  EXPECT_DOUBLE_EQ(b, 2e-3);
}

TEST(SharedBus, PerMessageOverheadOnWire) {
  SharedBusConfig cfg;
  cfg.latency = 0;
  cfg.per_message_overhead = 1e-3;
  cfg.bytes_per_second = 1e9;  // transmit ~ 0
  SharedBusNet net(cfg);
  net.schedule_transfer(0, 1, 10, 0.0);
  EXPECT_NEAR(net.busy_until(), 1e-3, 1e-7);
}

TEST(SharedBus, IdleBusStartsAtSubmitTime) {
  SharedBusNet net;
  const SimTime arr = net.schedule_transfer(0, 1, 100, 10.0);
  EXPECT_GT(arr, 10.0);
}

TEST(SharedBus, LocalDeliveryBypassesWire) {
  SharedBusNet net;
  EXPECT_DOUBLE_EQ(net.schedule_transfer(3, 3, 1 << 20, 7.0), 7.0);
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(SharedBus, SaturationUnderLoad) {
  SharedBusConfig cfg;
  cfg.latency = 0;
  cfg.per_message_overhead = 0;
  cfg.bytes_per_second = 1e6;
  SharedBusNet net(cfg);
  SimTime last = 0;
  for (int i = 0; i < 10; ++i)
    last = net.schedule_transfer(i % 4, (i + 1) % 4, 1000, 0.0);
  // 10 back-to-back millisecond transfers = 10 ms of wire time.
  EXPECT_NEAR(last, 10e-3, 1e-9);
  EXPECT_NEAR(net.stats().busy_time, 10e-3, 1e-9);
}

TEST(Hypercube, HopCountIsXorPopcount) {
  PointToPointNet net(Topology::kHypercube, 8, LinkConfig{0, 0, 1e6});
  EXPECT_EQ(net.hop_count(0, 0), 0);
  EXPECT_EQ(net.hop_count(0, 1), 1);
  EXPECT_EQ(net.hop_count(0, 3), 2);
  EXPECT_EQ(net.hop_count(5, 6), 2);  // 101 ^ 110 = 011
  EXPECT_EQ(net.hop_count(0, 7), 3);
}

TEST(Hypercube, FartherNodesTakeLonger) {
  PointToPointNet near_net(Topology::kHypercube, 8, LinkConfig{0, 1e-5, 1e9});
  PointToPointNet far_net(Topology::kHypercube, 8, LinkConfig{0, 1e-5, 1e9});
  const SimTime one_hop = near_net.schedule_transfer(0, 1, 0, 0.0);
  const SimTime three_hops = far_net.schedule_transfer(0, 7, 0, 0.0);
  EXPECT_NEAR(three_hops - one_hop, 2e-5, 1e-12);
}

TEST(Hypercube, DisjointPairsDoNotContend) {
  PointToPointNet net(Topology::kHypercube, 4, LinkConfig{0, 0, 1e6});
  const SimTime a = net.schedule_transfer(0, 1, 1000, 0.0);
  const SimTime b = net.schedule_transfer(2, 3, 1000, 0.0);
  EXPECT_DOUBLE_EQ(a, b);  // concurrent, unlike the shared bus
}

TEST(Hypercube, SenderNicSerializes) {
  PointToPointNet net(Topology::kHypercube, 4, LinkConfig{0, 0, 1e6});
  const SimTime a = net.schedule_transfer(0, 1, 1000, 0.0);
  const SimTime b = net.schedule_transfer(0, 2, 1000, 0.0);  // same sender
  EXPECT_DOUBLE_EQ(a, 1e-3);
  EXPECT_DOUBLE_EQ(b, 2e-3);
}

TEST(Hypercube, ReceiverNicSerializes) {
  PointToPointNet net(Topology::kHypercube, 4, LinkConfig{0, 0, 1e6});
  const SimTime a = net.schedule_transfer(0, 3, 1000, 0.0);
  const SimTime b = net.schedule_transfer(1, 3, 1000, 0.0);  // same receiver
  EXPECT_DOUBLE_EQ(a, 1e-3);
  EXPECT_GE(b, a);
}

TEST(Crossbar, DisjointPairsConcurrent) {
  PointToPointNet net(Topology::kCrossbar, 4, LinkConfig{0, 0, 1e6});
  const SimTime a = net.schedule_transfer(0, 1, 1000, 0.0);
  const SimTime b = net.schedule_transfer(2, 3, 1000, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Crossbar, ResetClearsOccupancy) {
  const LinkConfig xbar = ClusterConfig{}.xbar;
  PointToPointNet net(Topology::kCrossbar, 2, xbar);
  net.schedule_transfer(0, 1, 1 << 20, 0.0);
  net.reset();
  const SimTime fresh = net.schedule_transfer(0, 1, 0, 0.0);
  PointToPointNet reference(Topology::kCrossbar, 2, xbar);
  EXPECT_DOUBLE_EQ(fresh, reference.schedule_transfer(0, 1, 0, 0.0));
}

TEST(Mesh, GridGeometry) {
  PointToPointNet net(Topology::kMesh, 9, LinkConfig{0, 0, 1e6});  // 3x3
  EXPECT_EQ(net.width(), 3);
  EXPECT_EQ(net.hop_count(0, 0), 0);
  EXPECT_EQ(net.hop_count(0, 1), 1);   // right one
  EXPECT_EQ(net.hop_count(0, 3), 1);   // down one
  EXPECT_EQ(net.hop_count(0, 8), 4);   // opposite corner
  EXPECT_EQ(net.hop_count(2, 6), 4);
}

TEST(Mesh, NonSquareCountsStillRoute) {
  // A 3-wide grid, 2 rows.
  PointToPointNet net(Topology::kMesh, 6, LinkConfig{0, 0, 1e6});
  EXPECT_EQ(net.width(), 3);
  EXPECT_EQ(net.hop_count(0, 5), 3);  // (0,0) -> (2,1)
}

TEST(Mesh, FartherNodesTakeLonger) {
  PointToPointNet near_net(Topology::kMesh, 16, LinkConfig{0, 1e-5, 1e9});
  PointToPointNet far_net(Topology::kMesh, 16, LinkConfig{0, 1e-5, 1e9});
  const SimTime one = near_net.schedule_transfer(0, 1, 0, 0.0);
  const SimTime six = far_net.schedule_transfer(0, 15, 0, 0.0);
  EXPECT_NEAR(six - one, 5e-5, 1e-12);  // 6 hops vs 1 hop
}

TEST(Mesh, SenderNicSerializes) {
  PointToPointNet net(Topology::kMesh, 4, LinkConfig{0, 0, 1e6});
  const SimTime a = net.schedule_transfer(0, 1, 1000, 0.0);
  const SimTime b = net.schedule_transfer(0, 2, 1000, 0.0);
  EXPECT_DOUBLE_EQ(a, 1e-3);
  EXPECT_DOUBLE_EQ(b, 2e-3);
}

TEST(Mesh, MeshSlowerThanHypercubeForFarPairs) {
  // Same per-hop cost: a 16-node mesh's diameter (6) exceeds the
  // hypercube's (4) — topology matters.
  PointToPointNet mesh(Topology::kMesh, 16, LinkConfig{0, 1e-5, 1e9});
  PointToPointNet cube(Topology::kHypercube, 16, LinkConfig{0, 1e-5, 1e9});
  EXPECT_GT(mesh.schedule_transfer(0, 15, 0, 0.0),
            cube.schedule_transfer(0, 15, 0, 0.0));
}

TEST(AllNets, ArrivalNeverBeforeSubmit) {
  const ClusterConfig defaults;
  SharedBusNet bus;
  PointToPointNet cube(Topology::kHypercube, 8, defaults.cube);
  PointToPointNet xbar(Topology::kCrossbar, 8, defaults.xbar);
  PointToPointNet mesh(Topology::kMesh, 8, defaults.mesh);
  IdealNet ideal(1e-6, 1e7);
  for (NetworkModel* net : std::initializer_list<NetworkModel*>{
           &bus, &cube, &xbar, &mesh, &ideal}) {
    for (int i = 0; i < 20; ++i) {
      const SimTime t0 = 0.1 * i;
      EXPECT_GE(net->schedule_transfer(i % 8, (i + 3) % 8, 100 * i, t0), t0);
    }
  }
}

// --- golden timings ---------------------------------------------------------
// Each point-to-point platform plays one fixed script whose submit times
// overlap, so both NIC queues back up.  Every arrival and the busy time are
// pinned bit for bit: a change to a model's arithmetic, including the order
// it adds its terms in, fails here.

struct Send {
  MachineId from = 0;
  std::vector<MachineId> tos;  ///< one entry: a unicast
  std::size_t bytes = 0;
  SimTime now = 0;
};

/// 32 unicasts and 8 multicasts; two sends share each submit time.
std::vector<Send> golden_script(int machines, std::size_t unit, SimTime tick) {
  std::vector<Send> script;
  for (int i = 0; i < 40; ++i) {
    Send s;
    s.from = (5 * i + 1) % machines;
    if (i % 5 == 4) {
      for (int d : {1, 2, 4}) s.tos.push_back((s.from + d) % machines);
      std::sort(s.tos.begin(), s.tos.end());
    } else {
      s.tos.push_back((s.from + 1 + (3 * i) % (machines - 1)) % machines);
    }
    s.bytes = unit * static_cast<std::size_t>(1 + (3 * i) % 4);
    s.now = tick * (i / 2);
    script.push_back(std::move(s));
  }
  return script;
}

/// Every arrival in script order, then the network's busy time.
std::vector<SimTime> play(NetworkModel& net, const std::vector<Send>& script) {
  std::vector<SimTime> out;
  for (const Send& s : script)
    out.push_back(s.tos.size() == 1
                      ? net.schedule_transfer(s.from, s.tos[0], s.bytes, s.now)
                      : net.schedule_multicast(s.from, s.tos, s.bytes, s.now));
  out.push_back(net.stats().busy_time);
  return out;
}

/// Dyadic crossbar constants: every sum in the model is exact, so the
/// expected arrivals hold whatever order the model adds its terms in.  The
/// first branch takes the field names of the former crossbar-only config,
/// so the script still runs on the per-topology models the values were
/// checked against.
template <typename Link>
void use_dyadic_constants(Link& link) {
  if constexpr (requires { link.per_message_overhead; }) {
    link.per_message_overhead = 0x1p-16;
    link.latency = 0x1p-15;
  } else {
    link.startup = 0x1p-16;
    link.per_hop = 0x1p-15;
  }
  link.bytes_per_second = 0x1p20;
}

void expect_golden(const std::vector<SimTime>& got,
                   const std::vector<SimTime>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

TEST(GoldenTimings, HypercubePresetConstants) {
  auto net = presets::ipsc860(8).make_network();
  expect_golden(play(*net, golden_script(8, 700, 25e-6)), {
    0x1.6bdb1a6d698fep-12, 0x1.1cb039ef0f16fp-10, 0x1.1cb039ef0f16fp-10,
    0x1.461b6d43d0397p-11, 0x1.a048e043a2164p-12, 0x1.2cadddf43c7d7p-10,
    0x1.2cadddf43c7d7p-10, 0x1.5a8deb0fadf2fp-11, 0x1.5a8deb0fadf2fp-11,
    0x1.1cb039ef0f16fp-9, 0x1.bcdbbe0157eeep-10, 0x1.bcdbbe0157eeep-10,
    0x1.1b3f20a73f749p-9, 0x1.233df2a9d627cp-9, 0x1.1cb039ef0f16fp-9,
    0x1.1cb039ef0f16fp-9, 0x1.1cb039ef0f16fp-9, 0x1.ab0856e696a27p-9,
    0x1.ab0856e696a27p-9, 0x1.ab0856e696a27p-9, 0x1.1b3f20a73f749p-9,
    0x1.aeb3dd11be6e7p-9, 0x1.aeb3dd11be6e7p-9, 0x1.aeb3dd11be6e7p-9,
    0x1.aeb3dd11be6e7p-9, 0x1.1a86940357a35p-8, 0x1.b6b2af1455219p-9,
    0x1.b6b2af1455219p-9, 0x1.bcdbbe0157eeep-10, 0x1.1e85fd04a2fcfp-8,
    0x1.1dcd7060bb2bbp-8, 0x1.3a2df9378ee28p-9, 0x1.3a2df9378ee28p-9,
    0x1.61b2a27f1b692p-8, 0x1.1e85fd04a2fcfp-8, 0x1.ab0856e696a27p-9,
    0x1.ab0856e696a27p-9, 0x1.64f97edc7ef18p-8, 0x1.14b167ec7863dp-8,
    0x1.61b2a27f1b692p-8, 0x1.cac083126e976p-6,
  });
}

TEST(GoldenTimings, MeshPresetConstants) {
  auto net = presets::mesh(9).make_network();  // a 3x3 grid
  expect_golden(play(*net, golden_script(9, 700, 25e-6)), {
    0x1.205bc01a36e2fp-12, 0x1.da7b0b3919265p-11, 0x1.76ddaceee0f3cp-11,
    0x1.76ddaceee0f3cp-11, 0x1.64840e1719f8p-12, 0x1.e4f765fd8adacp-11,
    0x1.e4f765fd8adacp-11, 0x1.2839042d8c2a4p-11, 0x1.2839042d8c2a4p-11,
    0x1.2d77318fc5049p-10, 0x1.9652bd3c36114p-10, 0x1.9652bd3c36114p-10,
    0x1.2d77318fc5049p-10, 0x1.3e81450efdc9cp-10, 0x1.ab4b72c5197a2p-10,
    0x1.a75cd0bb6ed67p-10, 0x1.a75cd0bb6ed67p-10, 0x1.ab4b72c5197a2p-10,
    0x1.de69ad42c3c9ep-10, 0x1.096bb98c7e282p-9, 0x1.057d1782d3847p-9,
    0x1.a8ac5c13fd0d1p-10, 0x1.e3a7daa4fca43p-10, 0x1.0c0ad03d9a954p-9,
    0x1.0c0ad03d9a954p-9, 0x1.b9b66f9335d26p-10, 0x1.f4b1ee2435698p-10,
    0x1.29888f861a60dp-9, 0x1.2d77318fc5049p-9, 0x1.30be0ded288cfp-9,
    0x1.2ccf6be37de94p-9, 0x1.2e1ef73c0c1fcp-9, 0x1.3404ea4a8c156p-9,
    0x1.335d249e44fa1p-9, 0x1.335d249e44fa1p-9, 0x1.36a400fba8827p-9,
    0x1.4d940789613d3p-9, 0x1.9c38b04ab606cp-9, 0x1.9c38b04ab606cp-9,
    0x1.6b11c6d1e108dp-9, 0x1.6f0068db8bac5p-6,
  });
}

TEST(GoldenTimings, CrossbarDyadicConstants) {
  ClusterConfig c = presets::hrv(7);  // 8 machines
  use_dyadic_constants(c.xbar);
  auto net = c.make_network();
  expect_golden(play(*net, golden_script(8, 1024, 0x1p-12)), {
    0x1.0cp-10, 0x1.03p-8, 0x1.03p-8,
    0x1.26p-9, 0x1.8cp-10, 0x1.23p-8,
    0x1.23p-8, 0x1.66p-9, 0x1.66p-9,
    0x1.02p-7, 0x1.94p-8, 0x1.94p-8,
    0x1.02p-7, 0x1.12p-7, 0x1.02p-7,
    0x1.02p-7, 0x1.02p-7, 0x1.828p-7,
    0x1.828p-7, 0x1.828p-7, 0x1.02p-7,
    0x1.928p-7, 0x1.928p-7, 0x1.928p-7,
    0x1.928p-7, 0x1.018p-6, 0x1.8bp-7,
    0x1.8bp-7, 0x1.94p-8, 0x1.098p-6,
    0x1.098p-6, 0x1.1bp-7, 0x1.1bp-7,
    0x1.41cp-6, 0x1.098p-6, 0x1.828p-7,
    0x1.828p-7, 0x1.49cp-6, 0x1.fb8p-7,
    0x1.41cp-6, 0x1.928p-4,
  });
}

}  // namespace
}  // namespace jade
