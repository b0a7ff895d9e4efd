// Machine and cluster descriptions.
//
// A ClusterConfig is the SimEngine's model of one of the paper's platforms:
// a set of machines (each with its own speed, byte order and role) plus an
// interconnect and the runtime overhead constants.  Section 7 lists the real
// systems these model: the Stanford DASH and SGI 4D/240S (shared memory),
// the Intel iPSC/860 (hypercube message passing), Mica (Sparc ELCs on
// Ethernet under PVM), mixed SPARC/MIPS workstation networks, and the Sun
// HRV workstation (SPARC + i860 accelerators).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "jade/net/network.hpp"
#include "jade/net/point_to_point.hpp"
#include "jade/net/shared_bus.hpp"
#include "jade/support/time.hpp"
#include "jade/types/type_desc.hpp"

namespace jade {

/// What a machine is for.  Tasks may be pinned to machines (Section 4.5);
/// the video-pipeline application pins capture to the frame source and
/// transforms to accelerators, as the paper's HRV application does.
enum class MachineKind : std::uint8_t {
  kCpu,
  kAccelerator,  ///< fast compute, e.g. the HRV's i860 graphics units
  kFrameSource,  ///< owns the camera / frame grabber
};

struct MachineDesc {
  std::string name;
  MachineKind kind = MachineKind::kCpu;
  Endian endian = Endian::kLittle;
  /// Abstract work units retired per second; task charge() units divide by
  /// this to give virtual execution time.
  double ops_per_second = 1.0e7;
};

/// Fail-stop liveness (ft/).  A machine is up until its scheduled crash,
/// after which it never comes back (recovery re-runs its work elsewhere
/// rather than rebooting it).
enum class MachineStatus : std::uint8_t { kUp, kCrashed };

struct MachineHealth {
  MachineStatus status = MachineStatus::kUp;
  SimTime crashed_at = 0;   ///< ground truth (the injector's clock)
  SimTime detected_at = 0;  ///< when the failure detector declared it dead
  bool up() const { return status == MachineStatus::kUp; }
};

enum class NetKind : std::uint8_t {
  kSharedMemory,  ///< no object motion; hardware keeps memory coherent
  kSharedBus,     ///< single shared Ethernet (Mica)
  kHypercube,     ///< iPSC/860-style point-to-point cube
  kCrossbar,      ///< non-blocking switch (workstation nets, HRV)
  kMesh,          ///< 2-D mesh with XY routing (DASH fabric, Paragon era)
  kIdeal,         ///< contention-free baseline for ablations
};

struct IdealNetConfig {
  SimTime latency = 10e-6;
  double bytes_per_second = 100e6;
};

struct ClusterConfig {
  std::string name = "cluster";
  std::vector<MachineDesc> machines;
  NetKind net = NetKind::kSharedMemory;

  SharedBusConfig bus;
  /// Point-to-point links as {startup, per_hop, bytes_per_second}; the
  /// iPSC/860's is its realized bandwidth, the crossbar's is per link.
  LinkConfig cube{75e-6, 11e-6, 2.8e6};
  LinkConfig xbar{10e-6, 20e-6, 40e6};
  LinkConfig mesh{60e-6, 15e-6, 3.5e6};
  IdealNetConfig ideal;

  /// Runtime cost, in seconds on the executing machine, of dispatching one
  /// task (dequeue, access-spec bookkeeping, local translation setup).
  SimTime task_dispatch_overhead = 150e-6;
  /// Runtime cost, in seconds on the creating machine, of executing a
  /// withonly construct (building the spec, inserting queue records).
  SimTime task_create_overhead = 60e-6;
  /// Per-scalar cost of heterogeneous data-format conversion on receive.
  SimTime conversion_seconds_per_scalar = 40e-9;
  /// Size of runtime control messages (task dispatch, object requests...).
  std::size_t control_message_bytes = 64;

  bool shared_memory() const { return net == NetKind::kSharedMemory; }
  int machine_count() const { return static_cast<int>(machines.size()); }

  /// Instantiates the interconnect model this config describes.
  std::unique_ptr<NetworkModel> make_network() const;

  /// Throws ConfigError on inconsistencies (no machines, too many, ...).
  void validate() const;
};

}  // namespace jade
