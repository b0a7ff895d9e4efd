// Tests for the scheduling selection heuristics (Section 5 optimizations).
#include <gtest/gtest.h>

#include "jade/sched/policies.hpp"

namespace jade {
namespace {

ObjectInfo make_info(ObjectId id, std::size_t doubles) {
  return ObjectInfo{id, TypeDescriptor::array_of<double>(doubles),
                    "o" + std::to_string(id)};
}

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : dir(3) {
    dir.add_object(make_info(1, 100), 0);  // 800 B on machine 0
    dir.add_object(make_info(2, 10), 1);   // 80 B on machine 1
    dir.add_object(make_info(3, 1), 2);    // 8 B on machine 2
  }
  ObjectDirectory dir;
};

TEST_F(PolicyTest, LocalityPrefersMachineHoldingBytes) {
  const ObjectId objs[] = {1};
  const int free[] = {1, 1, 1};
  EXPECT_EQ(pick_machine_for_task(dir, objs, free, /*locality=*/true,
                                  /*creator=*/2),
            0);
}

TEST_F(PolicyTest, BusyMachinesAreSkipped) {
  const ObjectId objs[] = {1};
  const int free[] = {0, 1, 1};  // machine 0 full despite locality
  const MachineId m = pick_machine_for_task(dir, objs, free, true, 2);
  EXPECT_NE(m, 0);
  EXPECT_NE(m, -1);
}

TEST_F(PolicyTest, NoFreeMachineReturnsMinusOne) {
  const ObjectId objs[] = {1};
  const int free[] = {0, 0, 0};
  EXPECT_EQ(pick_machine_for_task(dir, objs, free, true, 0), -1);
}

TEST_F(PolicyTest, TieBreaksPreferCreator) {
  const ObjectId objs[] = {3};  // resident on machine 2 only
  const int free[] = {1, 1, 0};
  // Machines 0 and 1 both hold 0 bytes; the creator (1) wins the tie.
  EXPECT_EQ(pick_machine_for_task(dir, objs, free, true, 1), 1);
}

TEST_F(PolicyTest, LocalityOffBalancesByFreeContexts) {
  const ObjectId objs[] = {1};
  const int free[] = {1, 3, 2};
  EXPECT_EQ(pick_machine_for_task(dir, objs, free, /*locality=*/false, 0),
            1);
}

TEST_F(PolicyTest, LocalityBeatsCreatorPreference) {
  const ObjectId objs[] = {2};  // on machine 1
  const int free[] = {1, 1, 1};
  EXPECT_EQ(pick_machine_for_task(dir, objs, free, true, /*creator=*/0), 1);
}

// pick_task_for_machine scores each ready task by the declared bytes the
// idle machine already holds; here, tasks declaring objects {3}, {1}, {2}
// as the fixture's machines 0 and 1 would hold them.

TEST_F(PolicyTest, PickTaskPrefersResidentBytes) {
  const std::size_t on_m0[] = {0, 800, 0};
  const std::size_t on_m1[] = {0, 0, 80};
  EXPECT_EQ(pick_task_for_machine(on_m0, /*locality=*/true), 1u);
  EXPECT_EQ(pick_task_for_machine(on_m1, /*locality=*/true), 2u);
}

TEST_F(PolicyTest, PickTaskFifoWhenLocalityOff) {
  const std::size_t on_m0[] = {0, 800};
  EXPECT_EQ(pick_task_for_machine(on_m0, false), 0u);
}

TEST_F(PolicyTest, PickTaskFifoOnTies) {
  const std::size_t on_m1[] = {80, 80};
  EXPECT_EQ(pick_task_for_machine(on_m1, true), 0u);
}

TEST_F(PolicyTest, EmptyReadyListReturnsSentinel) {
  EXPECT_EQ(pick_task_for_machine({}, true),
            std::numeric_limits<std::size_t>::max());
}

TEST(ThrottleConfigTest, Defaults) {
  ThrottleConfig t;
  EXPECT_FALSE(t.enabled);
  EXPECT_GT(t.high_water, t.low_water);
}

}  // namespace
}  // namespace jade
