#include "jade/core/object.hpp"

#include <utility>

#include "jade/support/error.hpp"

namespace jade {

ObjectId ObjectTable::add(TypeDescriptor type, std::string name) {
  const ObjectId id = next_id_++;
  if (name.empty()) name = "obj#" + std::to_string(id);
  infos_.push_back(ObjectInfo{id, std::move(type), std::move(name)});
  return id;
}

const ObjectInfo& ObjectTable::info(ObjectId id) const {
  JADE_ASSERT_MSG(valid(id), "unknown shared object id");
  return infos_[id - 1];
}

void ObjectTable::set_tenant(ObjectId id, TenantId tenant) {
  JADE_ASSERT_MSG(valid(id), "unknown shared object id");
  infos_[id - 1].tenant = tenant;
}

bool ObjectTable::release(ObjectId id) {
  JADE_ASSERT_MSG(valid(id), "unknown shared object id");
  return !std::exchange(infos_[id - 1].released, true);
}

}  // namespace jade
