// ObjectDirectory at 1024+ machines — the ReplicaSet rework lifted the old
// 64-machine bitmask cap; these tests drive every directory operation with
// machine ids on both sides of the uint64 fast-path boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "jade/store/directory.hpp"
#include "jade/store/replica_set.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

TypeDescriptor dummy_type(std::size_t doubles) {
  return TypeDescriptor::array_of<double>(doubles);
}

ObjectInfo make_info(ObjectId id, std::size_t doubles) {
  ObjectInfo info;
  info.id = id;
  info.type = dummy_type(doubles);
  info.name = "obj" + std::to_string(id);
  return info;
}

TEST(ReplicaSet, FastPathAndOverflowCoexist) {
  ReplicaSet s;
  EXPECT_TRUE(s.none());
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(1500);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(1500));
  EXPECT_FALSE(s.test(65));
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.members(), (std::vector<MachineId>{0, 63, 64, 1500}));
  s.clear(63);
  s.clear(1500);
  EXPECT_EQ(s.members(), (std::vector<MachineId>{0, 64}));
  EXPECT_FALSE(s.sole(0));
  s.clear(64);
  EXPECT_TRUE(s.sole(0));
  s.reset();
  EXPECT_TRUE(s.none());
}

TEST(ReplicaSet, SoleAboveTheWordBoundary) {
  ReplicaSet s;
  s.set(1024);
  EXPECT_TRUE(s.sole(1024));
  EXPECT_FALSE(s.sole(1023));
  s.set(3);
  EXPECT_FALSE(s.sole(1024));
}

TEST(ReplicaSet, SetIsIdempotentEitherSide) {
  ReplicaSet s;
  s.set(5);
  s.set(5);
  s.set(500);
  s.set(500);
  EXPECT_EQ(s.count(), 2u);
}

TEST(DirectoryScale, AcceptsThousandsOfMachines) {
  ObjectDirectory dir(1536);
  EXPECT_EQ(dir.machine_count(), 1536);
  EXPECT_THROW(ObjectDirectory(kMaxMachines + 1), ConfigError);
}

TEST(DirectoryScale, ReplicationAndInvalidationAcrossTheBoundary) {
  ObjectDirectory dir(1100);
  dir.add_object(make_info(1, 16), /*home=*/1050);
  EXPECT_EQ(dir.owner(1), 1050);
  EXPECT_TRUE(dir.present(1, 1050));
  EXPECT_TRUE(dir.sole_holder(1, 1050));

  // Replicas on both sides of machine 64.
  for (MachineId m : {3, 63, 64, 512, 1024, 1099}) dir.replicate_to(1, m);
  EXPECT_EQ(dir.holders(1),
            (std::vector<MachineId>{3, 63, 64, 512, 1024, 1050, 1099}));
  EXPECT_FALSE(dir.sole_holder(1, 1050));
  EXPECT_EQ(dir.objects_on(1024).size(), 1u);

  // Invalidation drops every non-owner copy, ascending, and records the
  // dropped version for reuse.
  const std::vector<MachineId> dropped = dir.invalidate_replicas(1);
  EXPECT_EQ(dropped, (std::vector<MachineId>{3, 63, 64, 512, 1024, 1099}));
  EXPECT_TRUE(dir.sole_holder(1, 1050));
  EXPECT_TRUE(dir.reusable(1, 1024));
  dir.revalidate_to(1, 1024);
  EXPECT_TRUE(dir.present(1, 1024));

  // A write elsewhere makes the stale records non-reusable.
  dir.invalidate_replicas(1);
  dir.mark_dirty(1);
  EXPECT_FALSE(dir.reusable(1, 1024));
}

TEST(DirectoryScale, MoveAndLocalityAtHighIds) {
  ObjectDirectory dir(2048);
  dir.add_object(make_info(1, 8), 0);
  dir.add_object(make_info(2, 4), 2000);
  dir.replicate_to(1, 700);
  dir.replicate_to(1, 2047);

  // Exclusive move to a high id invalidates the other replicas.
  const int invalidated = dir.move_to(1, 1999);
  EXPECT_EQ(invalidated, 2);  // 700 and 2047; the owner's copy travelled
  EXPECT_EQ(dir.owner(1), 1999);
  EXPECT_TRUE(dir.sole_holder(1, 1999));
  EXPECT_EQ(dir.version(1), 1u);

  const std::vector<ObjectId> objs = {1, 2};
  EXPECT_EQ(dir.bytes_present(objs, 1999), 64u);
  EXPECT_EQ(dir.bytes_present(objs, 2000), 32u);
  EXPECT_EQ(dir.objects_on(1999), (std::vector<ObjectId>{1}));
}

TEST(DirectoryScale, RecoverySurgeryAtHighIds) {
  ObjectDirectory dir(1300);
  dir.add_object(make_info(1, 8), 1200);
  dir.replicate_to(1, 80);

  // Owner 1200 dies: re-home to the surviving replica at 80, drop the dead
  // copy.
  dir.set_owner(1, 80);
  dir.drop_copy(1, 1200);
  EXPECT_EQ(dir.owner(1), 80);
  EXPECT_TRUE(dir.sole_holder(1, 80));

  // Then 80 dies too: restore from stable storage onto a high id.
  dir.drop_copy(1, 80);
  dir.restore_to(1, 1234);
  EXPECT_EQ(dir.owner(1), 1234);
  EXPECT_TRUE(dir.present(1, 1234));
  EXPECT_EQ(dir.version(1), 2u);  // set_owner + restore_to each bumped it
}

TEST(DirectoryScale, ManyObjectsSpreadOverThousandMachines) {
  // Memory sanity: per-entry replica state must scale with the holders, not
  // with machine_count, so a thousand-machine directory with a thousand
  // objects is cheap.
  ObjectDirectory dir(1024);
  for (ObjectId id = 1; id <= 1000; ++id)
    dir.add_object(make_info(id, 2), static_cast<MachineId>((id * 7) % 1024));
  for (ObjectId id = 1; id <= 1000; ++id) {
    const MachineId home = static_cast<MachineId>((id * 7) % 1024);
    EXPECT_TRUE(dir.present(id, home));
    EXPECT_TRUE(dir.sole_holder(id, home));
  }
  std::size_t resident = 0;
  for (int m = 0; m < 1024; ++m) resident += dir.objects_on(m).size();
  EXPECT_EQ(resident, 1000u);
}

}  // namespace
}  // namespace jade
