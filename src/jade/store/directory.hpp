// The global object directory.
//
// Tracks, for every shared object, where its authoritative copy (owner) and
// read replicas live.  The SimEngine's transfer protocol consults and
// mutates this state to implement the paper's object management (Section 5):
// move on write access (old copy deallocated — Figure 7(c)), copy on read
// access (concurrent replicas — "Object Replication"), invalidate replicas
// when a writer takes the object.
//
// Two version counters per object support the communication-avoiding
// protocol (docs/PERFORMANCE.md, "Communication protocol"):
//   * `version`       counts ownership transfers (moves, re-homes, restores);
//   * `data_version`  counts writes to the bytes (mark_dirty).
// When a copy is dropped, the directory records the data version the holder
// last saw instead of forgetting it; a later fetch whose recorded version
// still matches the current data version can revalidate the stale replica
// with a control round-trip instead of re-shipping the payload.
//
// The directory also owns the canonical byte buffer of every object.  Task
// bodies execute in one host process, so the bytes live once per object
// (replicas never diverge in Jade: a writer holds the only copy); the
// per-object copy set is what drives transfer decisions, the locality
// heuristic and the traffic accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/store/replica_set.hpp"
#include "jade/support/time.hpp"

namespace jade {

class ObjectDirectory {
 public:
  explicit ObjectDirectory(int machines);

  /// Attaches the trace emitter (null detaches).  Directory mutations emit
  /// kStore instants stamped with `clock()` — the directory has no notion of
  /// time itself, so the owning engine supplies its clock.
  void set_observer(obs::Tracer* tracer, std::function<SimTime()> clock);

  int machine_count() const { return machines_; }

  /// Registers an object with its initial copy on `home`.
  void add_object(const ObjectInfo& info, MachineId home);

  bool known(ObjectId obj) const;
  MachineId owner(ObjectId obj) const;
  bool present(ObjectId obj, MachineId m) const;
  std::size_t object_bytes(ObjectId obj) const;

  /// Data access (canonical buffer).
  std::byte* data(ObjectId obj);
  std::span<const std::byte> data_view(ObjectId obj) const;

  /// Version counter: bumped on every ownership move; lets tests verify the
  /// protocol took the expected number of exclusive transfers.
  std::uint64_t version(ObjectId obj) const;

  /// Data-content version: bumped by mark_dirty on every write acquisition,
  /// independent of ownership motion.  Replica reuse compares against it.
  std::uint64_t data_version(ObjectId obj) const;

  /// Records a write to the object's bytes: the data version advances, so
  /// every recorded stale replica stops matching.  The engine must drop any
  /// live non-owner copies first (invalidate_replicas).
  void mark_dirty(ObjectId obj);

  /// Rolls the data version back after a killed attempt's snapshot restore
  /// (ft/): the bytes reverted, so the version they were stamped with must
  /// revert too.
  void set_data_version(ObjectId obj, std::uint64_t v);

  /// Drops every copy except the owner's, recording each dropped machine's
  /// last-seen data version (invalidate-on-first-write).  Returns the
  /// dropped machines in ascending order — the invalidation targets.
  std::vector<MachineId> invalidate_replicas(ObjectId obj);

  /// True when `m` holds no copy but the data version it last saw still
  /// matches the current one: a control-only revalidation can re-admit the
  /// stale replica without shipping the payload.
  bool reusable(ObjectId obj, MachineId m) const;

  /// Re-admits `m`'s stale-but-current replica (reusable() must hold).
  void revalidate_to(ObjectId obj, MachineId m);

  /// Adds a read replica on `m` (object stays owned where it is).
  void replicate_to(ObjectId obj, MachineId m);

  /// Moves ownership to `m`, dropping every other copy (invalidation) while
  /// recording each dropped holder's last-seen data version.  Returns the
  /// number of remote copies invalidated (excluding the old owner's, whose
  /// copy travelled rather than being discarded).
  int move_to(ObjectId obj, MachineId m);

  /// Machines currently holding a copy (owner included).
  std::vector<MachineId> holders(ObjectId obj) const;

  /// True when `m` holds the only copy (the common case after an exclusive
  /// transfer; gates the engine's first-write invalidation scan).
  bool sole_holder(ObjectId obj, MachineId m) const;

  /// Sum of the sizes of `objs` already present on machine `m` — the
  /// locality heuristic's score (Section 5, "Enhancing Locality").
  std::size_t bytes_present(std::span<const ObjectId> objs, MachineId m) const;

  /// Locality score for the scheduler: bytes present, plus — when reuse
  /// scoring is on — bytes whose stale replica on `m` is still reusable (a
  /// revalidation costs a control round-trip, far below the payload, so such
  /// machines are nearly as good as holders).
  std::size_t bytes_scoreable(std::span<const ObjectId> objs,
                              MachineId m) const;

  /// Enables reusable-replica credit in bytes_scoreable (the engine sets
  /// this from SchedPolicy::optimized_comm; default off keeps the score
  /// identical to bytes_present).
  void set_reuse_scoring(bool on) { reuse_scoring_ = on; }

  // --- Crash recovery surgery (ft/) ------------------------------------
  // These mutate directory metadata without modeling a transfer; the
  // recovery protocol in SimEngine charges the appropriate simulated costs
  // itself.

  /// Objects with a copy on `m`, in ObjectId order (deterministic recovery).
  std::vector<ObjectId> objects_on(MachineId m) const;

  /// Forgets `m`'s copy (replica loss on crash).  The owner's copy may only
  /// be dropped when it is the sole copy (the step before restore_to or
  /// mark_lost); with replicas alive, re-home with set_owner first.
  void drop_copy(ObjectId obj, MachineId m);

  /// Home re-election: `m` must already hold a replica; it becomes the
  /// owner without any copy moving (version bumps — ownership changed).
  void set_owner(ObjectId obj, MachineId m);

  /// Reload from stable storage onto `m` after every copy died: the object
  /// must have no live copies; `m` becomes sole owner.
  void restore_to(ObjectId obj, MachineId m);

  /// Marks an object permanently unrecoverable (sole copy died, no stable
  /// storage).  Any subsequent transfer raises UnrecoverableError.
  void mark_lost(ObjectId obj);
  bool lost(ObjectId obj) const;

 private:
  /// Sentinel for "this machine never held a copy" in last_seen.
  static constexpr std::uint64_t kNeverSeen = ~std::uint64_t{0};

  struct Entry {
    ObjectId id = kInvalidObject;
    std::size_t bytes = 0;
    MachineId owner = -1;
    ReplicaSet copies;  ///< machines holding a copy (uint64 fast path <64)
    std::uint64_t version = 0;
    std::uint64_t data_version = 0;  ///< bumped per write (mark_dirty)
    bool lost = false;  ///< every copy died with its machines
    std::vector<std::byte> buffer;
    /// Data version each machine's copy had when it was dropped, as a sorted
    /// (machine, version) small-set — machines never recorded here have never
    /// held a copy (the old dense per-machine vector would cost
    /// kMaxMachines * 8 bytes per object at thousand-machine scale).
    /// A recorded version matching the current data version makes the
    /// dropped replica reusable.
    std::vector<std::pair<MachineId, std::uint64_t>> last_seen;
  };

  Entry& entry(ObjectId obj);
  const Entry& entry(ObjectId obj) const;
  void emit(const char* name, ObjectId obj, MachineId machine, double value);
  /// Records the data version `m`'s copy carried as it is dropped.
  void note_drop(Entry& e, MachineId m);
  /// The data version `m` last saw, or kNeverSeen.
  static std::uint64_t last_seen_of(const Entry& e, MachineId m);

  int machines_;
  std::vector<Entry> entries_;  ///< indexed by ObjectId - 1
  obs::Tracer* tracer_ = nullptr;
  std::function<SimTime()> clock_;
  bool reuse_scoring_ = false;
};

}  // namespace jade
