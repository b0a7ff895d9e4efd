// Unit tests for the support module: intrusive list, RNG, stats, errors,
// work-stealing deque, parker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "jade/support/error.hpp"
#include "jade/support/intrusive_list.hpp"
#include "jade/support/parker.hpp"
#include "jade/support/rng.hpp"
#include "jade/support/stats.hpp"
#include "jade/support/work_steal_deque.hpp"

namespace jade {
namespace {

struct Node : IntrusiveNode {
  explicit Node(int v) : value(v) {}
  int value;
};

std::vector<int> values(IntrusiveList<Node>& list) {
  std::vector<int> out;
  list.for_each([&](Node* n) { out.push_back(n->value); });
  return out;
}

TEST(IntrusiveList, StartsEmpty) {
  IntrusiveList<Node> list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.front(), nullptr);
  EXPECT_EQ(list.back(), nullptr);
}

TEST(IntrusiveList, PushBackPreservesOrder) {
  IntrusiveList<Node> list;
  Node a(1), b(2), c(3);
  list.push_back(&a);
  list.push_back(&b);
  list.push_back(&c);
  EXPECT_EQ(values(list), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(list.front()->value, 1);
  EXPECT_EQ(list.back()->value, 3);
}

TEST(IntrusiveList, PushFront) {
  IntrusiveList<Node> list;
  Node a(1), b(2);
  list.push_front(&a);
  list.push_front(&b);
  EXPECT_EQ(values(list), (std::vector<int>{2, 1}));
}

TEST(IntrusiveList, InsertBefore) {
  IntrusiveList<Node> list;
  Node a(1), b(3);
  list.push_back(&a);
  list.push_back(&b);
  Node mid(2);
  list.insert_before(&b, &mid);
  EXPECT_EQ(values(list), (std::vector<int>{1, 2, 3}));
  Node first(0);
  list.insert_before(&a, &first);
  EXPECT_EQ(values(list), (std::vector<int>{0, 1, 2, 3}));
}

TEST(IntrusiveList, UnlinkMiddleFrontBack) {
  IntrusiveList<Node> list;
  Node a(1), b(2), c(3);
  list.push_back(&a);
  list.push_back(&b);
  list.push_back(&c);
  IntrusiveList<Node>::unlink(&b);
  EXPECT_EQ(values(list), (std::vector<int>{1, 3}));
  EXPECT_FALSE(b.linked());
  IntrusiveList<Node>::unlink(&a);
  EXPECT_EQ(values(list), (std::vector<int>{3}));
  IntrusiveList<Node>::unlink(&c);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveList, NextPrevNavigation) {
  IntrusiveList<Node> list;
  Node a(1), b(2);
  list.push_back(&a);
  list.push_back(&b);
  EXPECT_EQ(list.next_of(&a), &b);
  EXPECT_EQ(list.next_of(&b), nullptr);
  EXPECT_EQ(list.prev_of(&b), &a);
  EXPECT_EQ(list.prev_of(&a), nullptr);
}

TEST(IntrusiveList, ForEachMayUnlinkCurrent) {
  IntrusiveList<Node> list;
  Node a(1), b(2), c(3);
  list.push_back(&a);
  list.push_back(&b);
  list.push_back(&c);
  list.for_each([&](Node* n) {
    if (n->value == 2) IntrusiveList<Node>::unlink(n);
  });
  EXPECT_EQ(values(list), (std::vector<int>{1, 3}));
}

TEST(IntrusiveList, ReinsertAfterUnlink) {
  IntrusiveList<Node> list;
  Node a(1);
  list.push_back(&a);
  IntrusiveList<Node>::unlink(&a);
  list.push_back(&a);
  EXPECT_EQ(list.size(), 1u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TextTable, AlignedOutput) {
  TextTable t({"name", "value"});
  t.add_row(std::vector<std::string>{"alpha", "1"});
  t.add_row(std::vector<double>{2.5, 10.125}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("10.12"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchIsInternalError) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row(std::vector<std::string>{"only-one"}),
               InternalError);
}

TEST(Errors, HierarchyPreserved) {
  try {
    throw UndeclaredAccessError("boom");
  } catch (const JadeError& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_THROW(
      { JADE_ASSERT_MSG(false, "invariant"); }, InternalError);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.5, 3), "1.500");
  EXPECT_EQ(format_double(-0.25, 2), "-0.25");
}

TEST(WorkStealDeque, OwnerPopsLifoThievesStealFifo) {
  WorkStealDeque<int> d(4);
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.size_estimate(), 3u);
  auto oldest = d.steal();
  ASSERT_TRUE(oldest.has_value());
  EXPECT_EQ(*oldest, 1);
  auto newest = d.pop();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 3);
  EXPECT_EQ(*d.pop(), 2);
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(WorkStealDeque, GrowsPastInitialCapacityPreservingOrder) {
  WorkStealDeque<int> d(4);
  constexpr int kItems = 100;
  for (int i = 0; i < kItems; ++i) d.push(i);
  EXPECT_EQ(d.size_estimate(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems / 2; ++i) EXPECT_EQ(*d.steal(), i);
  for (int i = kItems - 1; i >= kItems / 2; --i) EXPECT_EQ(*d.pop(), i);
  EXPECT_TRUE(d.empty());
}

TEST(WorkStealDeque, ConcurrentThievesReceiveEachItemExactlyOnce) {
  // Owner pushes (and sometimes pops) while thieves steal; every item must
  // be delivered to exactly one taker.  Exactly-once shows up as both the
  // count and the sum matching; a double delivery would overshoot, a lost
  // item can only hang (bounded by the gtest harness, not a timer here).
  WorkStealDeque<int> d;
  constexpr int kItems = 20000;
  constexpr int kThieves = 2;
  std::atomic<bool> go{false};
  std::atomic<long long> sum{0};
  std::atomic<int> taken{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (taken.load(std::memory_order_acquire) < kItems) {
        if (std::optional<int> v = d.steal()) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 1; i <= kItems; ++i) {
    d.push(i);
    if (i % 3 == 0) {
      if (std::optional<int> v = d.pop()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        taken.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }
  while (taken.load(std::memory_order_acquire) < kItems) {
    if (std::optional<int> v = d.pop()) {
      sum.fetch_add(*v, std::memory_order_relaxed);
      taken.fetch_add(1, std::memory_order_acq_rel);
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : thieves) t.join();
  EXPECT_EQ(taken.load(), kItems);
  EXPECT_EQ(sum.load(),
            static_cast<long long>(kItems) * (kItems + 1) / 2);
}

TEST(Parker, UnparkBeforeParkSatisfiesIt) {
  Parker p;
  p.unpark();
  p.park();  // consumes the banked token without blocking
}

TEST(Parker, TokensDoNotAccumulate) {
  Parker p;
  p.unpark();
  p.unpark();
  p.unpark();
  p.park();  // three unparks banked exactly one token
  std::atomic<bool> woke{false};
  std::thread t([&] {
    p.park();
    woke.store(true, std::memory_order_release);
  });
  // No token is available, so the thread cannot have returned from park()
  // regardless of scheduling; only the unpark below releases it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  p.unpark();
  t.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace jade
