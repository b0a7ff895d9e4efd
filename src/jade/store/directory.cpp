#include "jade/store/directory.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "jade/support/error.hpp"

namespace jade {

ObjectDirectory::ObjectDirectory(int machines) : machines_(machines) {
  if (machines < 1 || machines > kMaxMachines)
    throw ConfigError("directory supports 1.." + std::to_string(kMaxMachines) +
                      " machines, got " + std::to_string(machines));
}

void ObjectDirectory::set_observer(obs::Tracer* tracer,
                                   std::function<SimTime()> clock) {
  tracer_ = tracer;
  clock_ = std::move(clock);
}

void ObjectDirectory::emit(const char* name, ObjectId obj, MachineId machine,
                           double value) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  const SimTime ts = clock_ ? clock_() : 0;
  tracer_->instant_at(ts, obs::Subsystem::kStore, name, obj, machine, value);
}

void ObjectDirectory::add_object(const ObjectInfo& info, MachineId home) {
  JADE_ASSERT_MSG(info.id == entries_.size() + 1,
                  "objects must be registered in allocation order");
  JADE_ASSERT(home >= 0 && home < machine_count());
  Entry e;
  e.id = info.id;
  e.bytes = info.byte_size();
  e.owner = home;
  e.copies.set(home);
  e.buffer.assign(e.bytes, std::byte{0});
  entries_.push_back(std::move(e));
}

bool ObjectDirectory::known(ObjectId obj) const {
  return obj >= 1 && obj <= entries_.size();
}

ObjectDirectory::Entry& ObjectDirectory::entry(ObjectId obj) {
  JADE_ASSERT_MSG(known(obj), "object not registered in directory");
  return entries_[obj - 1];
}

const ObjectDirectory::Entry& ObjectDirectory::entry(ObjectId obj) const {
  JADE_ASSERT_MSG(known(obj), "object not registered in directory");
  return entries_[obj - 1];
}

MachineId ObjectDirectory::owner(ObjectId obj) const {
  return entry(obj).owner;
}

bool ObjectDirectory::present(ObjectId obj, MachineId m) const {
  return entry(obj).copies.test(m);
}

std::size_t ObjectDirectory::object_bytes(ObjectId obj) const {
  return entry(obj).bytes;
}

std::byte* ObjectDirectory::data(ObjectId obj) {
  return entry(obj).buffer.data();
}

std::span<const std::byte> ObjectDirectory::data_view(ObjectId obj) const {
  const Entry& e = entry(obj);
  return {e.buffer.data(), e.buffer.size()};
}

std::uint64_t ObjectDirectory::version(ObjectId obj) const {
  return entry(obj).version;
}

std::uint64_t ObjectDirectory::data_version(ObjectId obj) const {
  return entry(obj).data_version;
}

void ObjectDirectory::mark_dirty(ObjectId obj) { ++entry(obj).data_version; }

void ObjectDirectory::set_data_version(ObjectId obj, std::uint64_t v) {
  entry(obj).data_version = v;
}

std::uint64_t ObjectDirectory::last_seen_of(const Entry& e, MachineId m) {
  auto it = std::lower_bound(
      e.last_seen.begin(), e.last_seen.end(), m,
      [](const auto& rec, MachineId key) { return rec.first < key; });
  if (it == e.last_seen.end() || it->first != m) return kNeverSeen;
  return it->second;
}

void ObjectDirectory::note_drop(Entry& e, MachineId m) {
  auto it = std::lower_bound(
      e.last_seen.begin(), e.last_seen.end(), m,
      [](const auto& rec, MachineId key) { return rec.first < key; });
  if (it != e.last_seen.end() && it->first == m)
    it->second = e.data_version;
  else
    e.last_seen.insert(it, {m, e.data_version});
}

std::vector<MachineId> ObjectDirectory::invalidate_replicas(ObjectId obj) {
  Entry& e = entry(obj);
  std::vector<MachineId> dropped;
  e.copies.for_each([&](MachineId h) {
    if (h != e.owner) dropped.push_back(h);
  });
  for (MachineId h : dropped) {
    note_drop(e, h);
    e.copies.clear(h);
    emit("store.invalidate", obj, h, static_cast<double>(e.bytes));
  }
  return dropped;
}

bool ObjectDirectory::reusable(ObjectId obj, MachineId m) const {
  const Entry& e = entry(obj);
  if (e.lost || e.copies.test(m)) return false;
  return last_seen_of(e, m) == e.data_version;
}

void ObjectDirectory::revalidate_to(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  JADE_ASSERT_MSG(reusable(obj, m), "revalidating a non-reusable replica");
  e.copies.set(m);
  emit("store.revalidate", obj, m, static_cast<double>(e.bytes));
}

void ObjectDirectory::replicate_to(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  JADE_ASSERT_MSG(!e.copies.test(m),
                  "replicating to a machine that already holds a copy");
  e.copies.set(m);
  emit("store.replicate", obj, m, static_cast<double>(e.bytes));
}

int ObjectDirectory::move_to(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  int invalidated = 0;
  e.copies.for_each([&](MachineId h) {
    if (h == m) return;
    note_drop(e, h);
    if (h != e.owner) {
      ++invalidated;  // the owner's copy travels, not dies
      emit("store.invalidate", obj, h, static_cast<double>(e.bytes));
    }
  });
  e.copies.reset();
  e.copies.set(m);
  e.owner = m;
  ++e.version;
  emit("store.move", obj, m, static_cast<double>(e.bytes));
  return invalidated;
}

std::vector<MachineId> ObjectDirectory::holders(ObjectId obj) const {
  return entry(obj).copies.members();
}

bool ObjectDirectory::sole_holder(ObjectId obj, MachineId m) const {
  return entry(obj).copies.sole(m);
}

std::size_t ObjectDirectory::bytes_present(std::span<const ObjectId> objs,
                                           MachineId m) const {
  std::size_t sum = 0;
  for (ObjectId obj : objs)
    if (present(obj, m)) sum += object_bytes(obj);
  return sum;
}

std::size_t ObjectDirectory::bytes_scoreable(std::span<const ObjectId> objs,
                                             MachineId m) const {
  std::size_t sum = 0;
  for (ObjectId obj : objs)
    if (present(obj, m) || (reuse_scoring_ && reusable(obj, m)))
      sum += object_bytes(obj);
  return sum;
}

std::vector<ObjectId> ObjectDirectory::objects_on(MachineId m) const {
  JADE_ASSERT(m >= 0 && m < machine_count());
  std::vector<ObjectId> out;
  for (const Entry& e : entries_)
    if (e.copies.test(m)) out.push_back(e.id);
  return out;
}

void ObjectDirectory::drop_copy(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  JADE_ASSERT_MSG(e.copies.test(m), "dropping a copy that isn't there");
  JADE_ASSERT_MSG(e.owner != m || e.copies.sole(m),
                  "cannot drop the owner's copy while replicas exist; "
                  "re-home it first");
  note_drop(e, m);
  e.copies.clear(m);
}

void ObjectDirectory::set_owner(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  JADE_ASSERT_MSG(e.copies.test(m), "new owner must already hold a replica");
  JADE_ASSERT(e.owner != m);
  e.owner = m;
  ++e.version;
  emit("store.rehome", obj, m, static_cast<double>(e.bytes));
}

void ObjectDirectory::restore_to(ObjectId obj, MachineId m) {
  Entry& e = entry(obj);
  JADE_ASSERT_MSG(e.copies.none(), "restore requires every copy to have died");
  JADE_ASSERT(!e.lost);
  e.copies.set(m);
  e.owner = m;
  ++e.version;
  emit("store.restore", obj, m, static_cast<double>(e.bytes));
}

void ObjectDirectory::mark_lost(ObjectId obj) {
  Entry& e = entry(obj);
  JADE_ASSERT(e.copies.none());
  e.lost = true;
  emit("store.lost", obj, -1, static_cast<double>(e.bytes));
}

bool ObjectDirectory::lost(ObjectId obj) const { return entry(obj).lost; }

}  // namespace jade
