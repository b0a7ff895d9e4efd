// One object space on every engine: the same misuse of a shared-object id
// or size raises the same error type (ConfigError) on Serial, Thread, Sim
// and Cluster, and a released object's bytes are gone for good.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

RuntimeConfig config_for(EngineKind kind) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = 2;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ipsc860(2);
  cfg.cluster_proc.workers = 1;
  return cfg;
}

class ObjectSpace : public ::testing::TestWithParam<EngineKind> {
 protected:
  Runtime rt_{config_for(GetParam())};
  Engine& engine() { return rt_.engine(); }
};

TEST_P(ObjectSpace, PutThenGetRoundTrips) {
  auto v = rt_.alloc<int>(4, "v");
  const std::vector<int> data{1, 2, 3, 4};
  rt_.put(v, std::span<const int>(data));
  EXPECT_EQ(rt_.get(v), data);
  EXPECT_EQ(engine().object_info(v.id()).name, "v");
}

TEST_P(ObjectSpace, UnknownIdsAreConfigErrors) {
  const ObjectId known = rt_.alloc<int>(4, "known").id();
  const std::vector<std::byte> bytes(4 * sizeof(int));
  for (ObjectId id : {kInvalidObject, known + 1}) {
    EXPECT_THROW(engine().get_bytes(id), ConfigError) << id;
    EXPECT_THROW(engine().put_bytes(id, bytes), ConfigError) << id;
    EXPECT_THROW(engine().object_info(id), ConfigError) << id;
    EXPECT_THROW(engine().set_object_tenant(id, 1), ConfigError) << id;
    EXPECT_THROW(engine().release_object(id), ConfigError) << id;
  }
}

TEST_P(ObjectSpace, WrongSizeWritesAreConfigErrors) {
  auto v = rt_.alloc<int>(4, "v");
  const std::vector<std::byte> three(3 * sizeof(int));
  EXPECT_THROW(engine().put_bytes(v.id(), three), ConfigError);
  const std::vector<int> five(5, 7);
  EXPECT_THROW(rt_.put(v, std::span<const int>(five)), ConfigError);
  // Neither failed write touched the object.
  EXPECT_EQ(rt_.get(v), std::vector<int>(4, 0));
}

TEST_P(ObjectSpace, ReleasedObjectsRejectBytesButKeepTheirId) {
  auto v = rt_.alloc<int>(4, "v");
  engine().release_object(v.id());
  EXPECT_THROW(engine().get_bytes(v.id()), ConfigError);
  EXPECT_THROW(engine().put_bytes(v.id(), std::vector<std::byte>(16)),
               ConfigError);
  // The metadata stays, and the id is never handed out again.
  EXPECT_EQ(engine().object_info(v.id()).name, "v");
  EXPECT_NE(rt_.alloc<int>(4).id(), v.id());
  engine().release_object(v.id());  // a second release changes nothing
  EXPECT_THROW(engine().get_bytes(v.id()), ConfigError);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ObjectSpace,
                         ::testing::Values(EngineKind::kSerial,
                                           EngineKind::kThread,
                                           EngineKind::kSim,
                                           EngineKind::kCluster),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kSerial: return "Serial";
                             case EngineKind::kThread: return "Thread";
                             case EngineKind::kSim: return "Sim";
                             case EngineKind::kCluster: return "Cluster";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace jade
