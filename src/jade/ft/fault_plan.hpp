// Fault plans: the deterministic failure model of the FT subsystem.
//
// The paper runs Jade on networks of workstations over Ethernet/PVM
// (Section 7.3, Mica) — an environment where machines crash and messages
// are lost — yet every execution of a Jade program must still "produce the
// same result as the serial execution".  That guarantee is exactly what
// makes crash recovery by task re-execution sound, and it is what the ft/
// subsystem implements on top of the simulator.
//
// A FaultPlan is a *schedule* of faults, fixed before the run:
//   * fail-stop machine crashes (machine, virtual time), either written out
//     explicitly or generated from a seed;
//   * a per-message drop probability applied by the transport decorator
//     (net/faulty.hpp), with retransmission + exponential backoff.
// Everything is derived from FaultConfig::seed through support/rng, so one
// seed reproduces one fault schedule bit-for-bit — the chaos tests rely on
// this to replay crash scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "jade/support/time.hpp"

namespace jade {

/// One scheduled fail-stop crash.  The machine halts at `time` and never
/// comes back; whatever it held in volatile memory is gone.
struct CrashEvent {
  MachineId machine = -1;
  SimTime time = 0;
};

/// Knobs of the failure model and of the recovery protocol.  Defaults are
/// calibrated to the Mica preset's time scale (milliseconds of virtual time
/// per task).
struct FaultConfig {
  /// Master switch; when false the SimEngine runs exactly as before (no
  /// heartbeats, no network decorator, no snapshots).
  bool enabled = false;

  /// Seeds crash-schedule generation and per-message drop decisions.
  std::uint64_t seed = 0x5eedfa17ULL;

  /// Explicit crash schedule.  Machine 0 hosts the original task and the
  /// failure detector (the coordinator of a master/worker runtime) and is
  /// assumed reliable, as in classical master/worker recovery schemes.
  std::vector<CrashEvent> crashes;

  /// When `crashes` is empty, generate this many crashes at seeded times
  /// uniform in [crash_window_begin, crash_window_end), on distinct seeded
  /// machines (never machine 0).
  int auto_crashes = 0;
  SimTime crash_window_begin = 0;
  SimTime crash_window_end = 1.0;

  /// Probability that a message between two *live* machines is lost in
  /// transit.  The sender retransmits after a timeout with exponential
  /// backoff (net/faulty.hpp).
  double drop_probability = 0;
  SimTime initial_retry_timeout = 2e-3;
  SimTime max_retry_timeout = 64e-3;
  /// Retransmissions are capped; past the cap the transport hands the last
  /// attempt to the network anyway (the recovery layers above tolerate it).
  int max_send_attempts = 10;

  /// Failure detection: every machine sends a heartbeat to machine 0 each
  /// interval; a machine unheard-from for miss_threshold intervals is
  /// declared dead.  Heartbeats ride the simulated interconnect, so the
  /// interval must leave the medium mostly free for data: on the Mica
  /// shared Ethernet one 32-byte message occupies the bus ~0.8 ms, so 7
  /// workers at 50 ms put ~12% background load on the wire (at 5 ms they
  /// alone would oversubscribe it and the backlog would grow forever).
  SimTime heartbeat_interval = 50e-3;
  int heartbeat_miss_threshold = 3;

  /// Snapshot/stable-storage policy: when true, every committed object
  /// update is (conceptually) persisted to stable storage, so an object
  /// whose only copy died is restored from it (10 ms plus its size at
  /// 10 MB/s; ft/recovery_coordinator.cpp).  When false such objects are
  /// declared unrecoverable and any later access throws UnrecoverableError.
  bool stable_storage = true;
};

/// A validated, fully materialized fault schedule for one cluster size.
class FaultPlan {
 public:
  /// Validates `config` against `machine_count` and generates the crash
  /// schedule when one was not given explicitly.  Throws ConfigError on a
  /// crash naming machine 0 / an out-of-range machine, on more crashes than
  /// crashable machines, or on a drop probability outside [0, 1).
  static FaultPlan make(FaultConfig config, int machine_count);

  const FaultConfig& config() const { return config_; }

  /// Crashes sorted by (time, machine); each machine appears at most once.
  const std::vector<CrashEvent>& crashes() const { return crashes_; }

 private:
  FaultPlan(FaultConfig config, std::vector<CrashEvent> crashes)
      : config_(std::move(config)), crashes_(std::move(crashes)) {}

  FaultConfig config_;
  std::vector<CrashEvent> crashes_;
};

}  // namespace jade
