// CoherenceProtocol — the object-motion protocol of the Jade runtime,
// factored out of the engine.
//
// The paper's Section 5 communication layer as one engine-agnostic service:
// move-on-write / copy-on-read transfers, batched multi-object fetches,
// replica revalidation against data versions, invalidation fan-out (with
// multicast coalescing), the cross-endian conversion cache, and per-machine
// payload-arrival tracking.  The protocol decides *what* travels and books
// the outcome in the ObjectDirectory; *how* bytes travel and what time it
// is are delegated to a CoherenceTransport, so the protocol is unit-testable
// with a fake transport and no engine (tests/coherence_test.cpp).
//
// Determinism contract: every transport call, directory mutation, stat
// increment, and trace emission happens in the exact order the engine used
// to make them — same-seed runs export byte-identical traces across the
// refactor (obs_trace_determinism_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/core/stats.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/sched/policies.hpp"
#include "jade/store/directory.hpp"
#include "jade/support/time.hpp"
#include "jade/types/type_desc.hpp"

namespace jade {

/// One object of a task's fetch set.
struct FetchItem {
  ObjectId obj;
  bool exclusive;  ///< move (write/commute rights) rather than copy
  bool blocking;   ///< the task cannot start until it arrives; false for
                   ///< deferred-read prefetch hints
};

/// Typed key for per-(object, machine) protocol state.  Replaces the old
/// hand-packed `obj * kMaxMachines + m` uint64 key, whose arithmetic would
/// silently alias distinct keys once ObjectId grew past 2^58.
struct ObjectMachineKey {
  ObjectId obj = kInvalidObject;
  MachineId machine = -1;
  bool operator==(const ObjectMachineKey&) const = default;
};

struct ObjectMachineKeyHash {
  std::size_t operator()(const ObjectMachineKey& k) const {
    // splitmix64-style finalizer over both fields in full width — no
    // packing, so no collision hazard however large the id space grows.
    std::uint64_t x =
        k.obj + 0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(k.machine)) +
                     1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// What the protocol needs from the platform: a clock and point-to-point /
/// multicast delivery estimates.  SimEngine adapts its network model and
/// virtual clock; tests substitute a scripted fake.
class CoherenceTransport {
 public:
  virtual ~CoherenceTransport() = default;
  virtual SimTime now() const = 0;
  /// Schedules `bytes` from `from` to `to` departing at `at`; returns the
  /// arrival time.
  virtual SimTime unicast(MachineId from, MachineId to, std::size_t bytes,
                          SimTime at) = 0;
  /// One control message fanned out to every target; returns the last
  /// arrival.
  virtual SimTime multicast(MachineId from, std::span<const MachineId> targets,
                            std::size_t bytes, SimTime at) = 0;
};

struct CoherenceConfig {
  /// SchedPolicy::optimized_comm: false runs the per-object protocol.
  bool optimized_comm = true;
  /// Transport framing minimum for control messages (wire floor).
  std::size_t control_message_bytes = 64;
  /// Cost of one scalar's cross-endian format conversion.
  SimTime conversion_seconds_per_scalar = 40e-9;
};

class CoherenceProtocol {
 public:
  /// `endians` is the per-machine byte order (indexed by MachineId).  The
  /// tracer may be null (no tracing ever) or disabled-until-attached; the
  /// protocol checks enabled() per emission, exactly as the engine did.
  CoherenceProtocol(CoherenceTransport& transport, ObjectDirectory& directory,
                    const ObjectTable& objects, std::vector<Endian> endians,
                    CoherenceConfig config, RuntimeStats& stats,
                    obs::Tracer* tracer);

  /// Ensures `obj` is usable at machine `to` (exclusively if `exclusive`),
  /// scheduling transfers/invalidations/conversions; returns when it is
  /// available there.  The caller has already handled platform concerns
  /// (shared memory is free; crashed owners are the recovery protocol's
  /// problem).
  SimTime transfer(ObjectId obj, MachineId to, bool exclusive);

  /// Fetches a whole set of objects to machine `to`, combining items owned
  /// by the same remote machine into one batched request/reply when
  /// the optimized protocol is on.  Returns when the last *blocking* item is
  /// available (prefetch hints ride along without gating task start).
  SimTime fetch(MachineId to, std::vector<FetchItem> items);

  /// Exclusive acquire of `obj` by a task running on `writer`: drops
  /// replicas that raced in since the exclusive transfer (deferred-read
  /// prefetch) and bumps the object's data version — once per attempt,
  /// tracked through the caller's `dirtied` list so a killed attempt's
  /// re-run bumps again from the restored version.
  void first_write_invalidate(MachineId writer, ObjectId obj,
                              std::vector<ObjectId>& dirtied);

  /// When `obj`'s payload lands (or last landed) on machine `m`; 0 when
  /// never fetched there.
  SimTime available_at(ObjectId obj, MachineId m) const;
  void set_available_at(ObjectId obj, MachineId m, SimTime at);

  /// Drops every availability entry for machine `m` (crash recovery).
  void forget_machine(MachineId m);

 private:
  /// One batched request to owner `from` covering every item in `batch`
  /// (none satisfiable locally); the reply carries only the payloads that
  /// replica revalidation cannot serve.
  SimTime fetch_batch(MachineId to, MachineId from,
                      const std::vector<FetchItem>& batch);

  /// Invalidation fan-out for `obj`: one multicast control message when
  /// the optimized protocol is on and there is more than one target,
  /// per-target unicasts otherwise.
  void send_invalidations(ObjectId obj, MachineId from,
                          const std::vector<MachineId>& targets, SimTime now);

  /// Virtual seconds of heterogeneous format conversion for moving `obj`
  /// between `src` and `dst`; really performs the per-scalar swaps on a
  /// cache miss, costs nothing when the cached converted image is current.
  SimTime conversion_cost(ObjectId obj, MachineId src, MachineId dst);

  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  CoherenceTransport& transport_;
  ObjectDirectory& directory_;
  const ObjectTable& objects_;
  std::vector<Endian> endians_;
  CoherenceConfig config_;
  RuntimeStats& stats_;
  obs::Tracer* tracer_;

  std::unordered_map<ObjectMachineKey, SimTime, ObjectMachineKeyHash>
      available_at_;
  /// Data version of each object's cached cross-endian converted image; a
  /// transfer whose entry matches the current version skips the conversion.
  std::unordered_map<ObjectId, std::uint64_t> converted_cache_;
};

}  // namespace jade
