// BodyRegistry + cluster::spawn — task bodies that cross process boundaries.
//
// A std::function cannot travel to another process, so cluster programs name
// their task bodies: each body is registered once (by every process, before
// the engine forks — fork inherits the registry) and referred to on the wire
// by its registry index.  Arguments travel as a WireWriter blob the body
// decodes on arrival; shared data travels as SharedRefs reconstructed from
// (ObjectId, count) pairs inside the blob via RefMaker.
//
// cluster::spawn() is the portable entry point: on a ClusterEngine (or a
// WorkerEngine inside a worker process) it sends the registered body id; on
// any other engine it wraps the registered body in an ordinary closure — so
// one program text runs on SerialEngine for verification and on the cluster
// for real, which is how the demo/bench/tests check serial equivalence.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jade/core/access.hpp"
#include "jade/core/object.hpp"
#include "jade/core/task.hpp"
#include "jade/types/wire.hpp"

namespace jade::cluster {

/// A registered task body: TaskContext plus the argument blob reader.
using RegisteredBody = std::function<void(TaskContext&, WireReader&)>;

/// Process-wide name -> body table.  Registration must happen before the
/// ClusterEngine starts its workers (the fork snapshots the table); the
/// engine checks and throws ConfigError on a body id a worker doesn't have.
class BodyRegistry {
 public:
  static BodyRegistry& instance();

  /// Registers `body` under `name`; returns its index.  Idempotent by name
  /// (re-registration returns the existing index and keeps the first body),
  /// so file-scope registration helpers can run in any order.
  int ensure(const std::string& name, RegisteredBody body);

  /// Index of `name`, or -1.
  int find(const std::string& name) const;

  const RegisteredBody& body(int index) const;
  int size() const { return static_cast<int>(entries_.size()); }

 private:
  struct Entry {
    std::string name;
    RegisteredBody body;
  };
  std::vector<Entry> entries_;
};

/// Implemented by ClusterEngine and WorkerEngine: spawn a child running a
/// registered body.  cluster::spawn dispatches here when the engine supports
/// it and falls back to a closure otherwise.
class RegisteredSpawner {
 public:
  virtual ~RegisteredSpawner() = default;
  virtual void spawn_registered(TaskNode* parent,
                                const std::vector<AccessRequest>& requests,
                                int body, std::vector<std::byte> args,
                                std::string name, MachineId placement) = 0;
};

/// Reconstructs typed SharedRefs from wire-carried (id, count) pairs inside
/// worker processes (SharedRef's constructor is private; this is the
/// sanctioned back door for the cluster layer).
struct RefMaker {
  template <typename T>
  static SharedRef<T> make(ObjectId id, std::size_t count) {
    return SharedRef<T>(id, count);
  }
};

/// Writes a ref as (id, count) — the wire form RefMaker reverses.
template <typename T>
void put_ref(WireWriter& w, const SharedRef<T>& ref) {
  w.put_u64(ref.id());
  w.put_u64(ref.count());
}

template <typename T>
SharedRef<T> get_ref(WireReader& r) {
  const ObjectId id = r.get_u64();
  const std::size_t count = r.get_u64();
  return RefMaker::make<T>(id, count);
}

/// Spawns a child task running registered body `body` with `args`.  Portable:
/// engines implementing RegisteredSpawner get the wire form; any other
/// engine gets a closure that re-decodes the same blob, preserving identical
/// semantics (and letting SerialEngine verify cluster programs).
void spawn(TaskContext& ctx, int body, WireWriter args,
           const TaskContext::SpecFn& spec, std::string name = "",
           MachineId placement = -1);

}  // namespace jade::cluster
