// Shared objects and typed references.
//
// Jade supports "the abstraction of a single shared memory that all tasks
// can access; each piece of data ... allocated in this memory is called a
// shared object" (Section 2).  The C `shared` type qualifier becomes
// SharedRef<T>: a globally valid identifier for an object, never a raw
// pointer — exactly as in the paper, where "each reference to a shared
// object is in reality a globally valid identifier for that object"
// (Section 3.3).  Dereferencing happens only through checked task accessors,
// which perform the global→local translation and the access check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "jade/types/type_desc.hpp"

namespace jade {

/// Globally valid identifier of a shared object.  0 is never a valid id.
using ObjectId = std::uint64_t;
inline constexpr ObjectId kInvalidObject = 0;

/// Identifier of a server tenant (src/jade/server); 0 means "shared" —
/// owned by the host program, readable/declarable by every tenant.
using TenantId = std::uint32_t;
inline constexpr TenantId kSharedTenant = 0;

class Runtime;
namespace server {
class Session;
}  // namespace server
namespace cluster {
struct RefMaker;
}  // namespace cluster

/// Type-erased reference to a shared object; the common currency of access
/// declarations.
class ObjectRef {
 public:
  ObjectRef() = default;

  ObjectId id() const { return id_; }
  explicit operator bool() const { return id_ != kInvalidObject; }
  bool operator==(const ObjectRef&) const = default;

 protected:
  explicit ObjectRef(ObjectId id) : id_(id) {}
  friend class Runtime;

  ObjectId id_ = kInvalidObject;
};

/// Typed reference to a shared object holding `count` elements of scalar
/// type T.  Copyable and trivially passable into task bodies (the paper's
/// "parameters" section); holds no pointer.
template <typename T>
class SharedRef : public ObjectRef {
 public:
  SharedRef() = default;

  std::size_t count() const { return count_; }
  std::size_t byte_size() const { return count_ * sizeof(T); }

 private:
  friend class Runtime;
  friend class server::Session;
  friend struct cluster::RefMaker;
  SharedRef(ObjectId id, std::size_t count) : ObjectRef(id), count_(count) {}

  std::size_t count_ = 0;
};

/// Metadata the runtime keeps per shared object.
struct ObjectInfo {
  ObjectId id = kInvalidObject;
  TypeDescriptor type;
  std::string name;  ///< optional, for traces and errors
  /// Owning tenant (kSharedTenant: host-owned, visible to every tenant).
  /// Tenant tasks may only declare accesses to their own or shared objects;
  /// the serializer enforces this at task creation.
  TenantId tenant = kSharedTenant;
  /// Its bytes were released (Engine::release_object); the id stays taken,
  /// so a stale reference fails instead of aliasing a newer object.
  bool released = false;

  std::size_t byte_size() const { return type.byte_size(); }
};

/// Dense registry of shared-object metadata; Engine owns the one each engine
/// uses.  Stored in a deque so `info()` references stay valid while other
/// threads allocate (ThreadEngine tasks may allocate mid-run; callers
/// synchronize `add`, but references previously handed out must never move).
class ObjectTable {
 public:
  ObjectId add(TypeDescriptor type, std::string name);
  const ObjectInfo& info(ObjectId id) const;
  bool valid(ObjectId id) const { return id >= 1 && id < next_id_; }
  std::size_t count() const { return infos_.size(); }

  /// Tags an object with its owning tenant (server sessions call this right
  /// after allocation, before the object can appear in any declaration).
  void set_tenant(ObjectId id, TenantId tenant);

  /// Marks an object released; false when it already was.
  bool release(ObjectId id);

 private:
  std::deque<ObjectInfo> infos_;
  ObjectId next_id_ = 1;
};

}  // namespace jade
