// Tests for the distributed object store: directory state transitions
// (move/copy/invalidate), per-machine resident accounting, locality queries.
#include <gtest/gtest.h>

#include "jade/store/directory.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

ObjectInfo make_info(ObjectId id, std::size_t doubles) {
  return ObjectInfo{id, TypeDescriptor::array_of<double>(doubles),
                    "o" + std::to_string(id)};
}

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest() : dir(4) {
    dir.add_object(make_info(1, 10), /*home=*/0);  // 80 bytes
    dir.add_object(make_info(2, 5), /*home=*/1);   // 40 bytes
  }
  ObjectDirectory dir;
};

TEST_F(DirectoryTest, InitialPlacement) {
  EXPECT_EQ(dir.owner(1), 0);
  EXPECT_TRUE(dir.present(1, 0));
  EXPECT_FALSE(dir.present(1, 1));
  EXPECT_EQ(dir.object_bytes(1), 80u);
  EXPECT_EQ(dir.bytes_present(dir.objects_on(0), 0), 80u);
  EXPECT_EQ(dir.bytes_present(dir.objects_on(1), 1), 40u);
  EXPECT_EQ(dir.version(1), 0u);
}

TEST_F(DirectoryTest, ReplicationKeepsOwner) {
  dir.replicate_to(1, 2);
  dir.replicate_to(1, 3);
  EXPECT_EQ(dir.owner(1), 0);
  EXPECT_TRUE(dir.present(1, 2));
  EXPECT_TRUE(dir.present(1, 3));
  EXPECT_EQ(dir.holders(1), (std::vector<MachineId>{0, 2, 3}));
  EXPECT_EQ(dir.bytes_present(dir.objects_on(2), 2), 80u);
  EXPECT_EQ(dir.version(1), 0u);  // copies don't bump the version
}

TEST_F(DirectoryTest, MoveInvalidatesReplicas) {
  dir.replicate_to(1, 1);
  dir.replicate_to(1, 2);
  const int invalidated = dir.move_to(1, 3);
  EXPECT_EQ(invalidated, 2);  // replicas at 1 and 2; owner's copy travelled
  EXPECT_EQ(dir.owner(1), 3);
  EXPECT_EQ(dir.holders(1), (std::vector<MachineId>{3}));
  EXPECT_FALSE(dir.present(1, 0));
  EXPECT_EQ(dir.bytes_present(dir.objects_on(0), 0), 0u);
  EXPECT_EQ(dir.version(1), 1u);
}

TEST_F(DirectoryTest, MoveToSelfWithReplicas) {
  dir.replicate_to(1, 1);
  const int invalidated = dir.move_to(1, 0);
  EXPECT_EQ(invalidated, 1);
  EXPECT_EQ(dir.holders(1), (std::vector<MachineId>{0}));
  EXPECT_EQ(dir.version(1), 1u);
}

TEST_F(DirectoryTest, MoveToReplicaHolder) {
  dir.replicate_to(1, 2);
  dir.move_to(1, 2);
  EXPECT_EQ(dir.owner(1), 2);
  EXPECT_EQ(dir.holders(1), (std::vector<MachineId>{2}));
  EXPECT_EQ(dir.bytes_present(dir.objects_on(2), 2), 80u);
}

TEST_F(DirectoryTest, DataBufferPersistsAcrossMoves) {
  auto* d = reinterpret_cast<double*>(dir.data(1));
  d[0] = 42.5;
  dir.move_to(1, 3);
  EXPECT_DOUBLE_EQ(reinterpret_cast<double*>(dir.data(1))[0], 42.5);
}

TEST_F(DirectoryTest, BytesPresentScoresLocality) {
  const ObjectId objs[] = {1, 2};
  EXPECT_EQ(dir.bytes_present(objs, 0), 80u);
  EXPECT_EQ(dir.bytes_present(objs, 1), 40u);
  EXPECT_EQ(dir.bytes_present(objs, 2), 0u);
  dir.replicate_to(2, 0);
  EXPECT_EQ(dir.bytes_present(objs, 0), 120u);
}

TEST_F(DirectoryTest, DoubleReplicationIsInternalError) {
  dir.replicate_to(1, 2);
  EXPECT_THROW(dir.replicate_to(1, 2), InternalError);
}

TEST_F(DirectoryTest, UnknownObjectIsError) {
  EXPECT_THROW(dir.owner(99), InternalError);
  EXPECT_FALSE(dir.known(99));
  EXPECT_TRUE(dir.known(1));
}

TEST(Directory, MachineCountLimits) {
  // An out-of-range cluster size is a configuration problem, not a runtime
  // invariant violation.  Since the ReplicaSet rework the ceiling is a
  // sanity bound (kMaxMachines), not the old 64-bit-mask width; 65+ machines
  // are legal (tests/directory_scale_test.cpp exercises 1024+).
  EXPECT_THROW(ObjectDirectory(0), ConfigError);
  EXPECT_THROW(ObjectDirectory(kMaxMachines + 1), ConfigError);
  EXPECT_THROW(ObjectDirectory(-1), ConfigError);
  ObjectDirectory ok65(65);
  EXPECT_EQ(ok65.machine_count(), 65);
  ObjectDirectory ok(kMaxMachines);
  EXPECT_EQ(ok.machine_count(), kMaxMachines);
}

// --- replica reuse / data-version bookkeeping -------------------------------

TEST_F(DirectoryTest, DropRecordsVersionForReuse) {
  dir.replicate_to(1, 2);
  EXPECT_FALSE(dir.reusable(1, 2));  // present, nothing to revalidate
  dir.drop_copy(1, 2);
  EXPECT_FALSE(dir.present(1, 2));
  EXPECT_TRUE(dir.reusable(1, 2));  // dropped at the current data version
  EXPECT_FALSE(dir.reusable(1, 3));  // machine 3 never held a copy
}

TEST_F(DirectoryTest, DirtyingKillsReuse) {
  dir.replicate_to(1, 2);
  dir.drop_copy(1, 2);
  ASSERT_TRUE(dir.reusable(1, 2));
  dir.mark_dirty(1);
  EXPECT_FALSE(dir.reusable(1, 2));  // content moved on; replica is stale
  EXPECT_EQ(dir.data_version(1), 1u);
}

TEST_F(DirectoryTest, MoveRecordsEvictedHoldersForReuse) {
  dir.replicate_to(1, 1);
  dir.replicate_to(1, 2);
  dir.move_to(1, 3);  // evicts 0, 1, 2
  EXPECT_TRUE(dir.reusable(1, 0));
  EXPECT_TRUE(dir.reusable(1, 1));
  EXPECT_TRUE(dir.reusable(1, 2));
  EXPECT_FALSE(dir.reusable(1, 3));  // present: nothing to revalidate
}

TEST_F(DirectoryTest, RevalidateRestoresReplica) {
  dir.replicate_to(1, 2);
  dir.drop_copy(1, 2);
  dir.revalidate_to(1, 2);
  EXPECT_TRUE(dir.present(1, 2));
  EXPECT_FALSE(dir.reusable(1, 2));  // present again
  EXPECT_EQ(dir.bytes_present(dir.objects_on(2), 2), 80u);
  EXPECT_EQ(dir.owner(1), 0);  // revalidation never moves ownership
}

TEST_F(DirectoryTest, InvalidateReplicasDropsNonOwners) {
  dir.replicate_to(1, 1);
  dir.replicate_to(1, 3);
  const std::vector<MachineId> dropped = dir.invalidate_replicas(1);
  EXPECT_EQ(dropped, (std::vector<MachineId>{1, 3}));
  EXPECT_EQ(dir.holders(1), (std::vector<MachineId>{0}));
  EXPECT_TRUE(dir.sole_holder(1, 0));
  // The dropped replicas match the pre-invalidation version...
  EXPECT_TRUE(dir.reusable(1, 1));
  // ...until the writer that triggered the invalidation dirties the object.
  dir.mark_dirty(1);
  EXPECT_FALSE(dir.reusable(1, 1));
}

TEST_F(DirectoryTest, SetDataVersionRestoresReuseDecisions) {
  // A killed task attempt rolls the data version back; replicas dropped at
  // the earlier version become reusable again.
  dir.replicate_to(1, 2);
  dir.drop_copy(1, 2);
  dir.mark_dirty(1);
  ASSERT_FALSE(dir.reusable(1, 2));
  dir.set_data_version(1, 0);
  EXPECT_TRUE(dir.reusable(1, 2));
}

TEST_F(DirectoryTest, BytesScoreableCountsReusableReplicas) {
  const ObjectId objs[] = {1, 2};
  dir.replicate_to(1, 2);
  dir.drop_copy(1, 2);
  // Scoring off (default): identical to bytes_present.
  EXPECT_EQ(dir.bytes_scoreable(objs, 2), dir.bytes_present(objs, 2));
  EXPECT_EQ(dir.bytes_scoreable(objs, 2), 0u);
  dir.set_reuse_scoring(true);
  EXPECT_EQ(dir.bytes_scoreable(objs, 2), 80u);  // the reusable replica
  EXPECT_EQ(dir.bytes_present(objs, 2), 0u);     // still not resident
  dir.mark_dirty(1);
  EXPECT_EQ(dir.bytes_scoreable(objs, 2), 0u);  // stale: no longer scores
}

TEST_F(DirectoryTest, ReuseSurvivesOwnershipSurgery) {
  // ft recovery re-homes ownership without touching other machines' reuse
  // records: a replica dropped before the crash still revalidates.
  dir.replicate_to(1, 2);
  dir.replicate_to(1, 3);
  dir.drop_copy(1, 3);
  ASSERT_TRUE(dir.reusable(1, 3));
  dir.set_owner(1, 2);   // machine 0 died; the replica at 2 takes over
  dir.drop_copy(1, 0);
  EXPECT_EQ(dir.owner(1), 2);
  EXPECT_TRUE(dir.reusable(1, 3));
  EXPECT_TRUE(dir.reusable(1, 0));  // the dead home's copy was also current
}

}  // namespace
}  // namespace jade
