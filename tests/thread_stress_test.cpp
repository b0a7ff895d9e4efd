// ThreadEngine-specific concurrency tests: the sharded buffer table, the
// determinism contract under real parallelism (results must equal the
// SerialEngine's bit-for-bit), the throttle deadlock-escape, and tasks that
// block parking their fibers instead of their threads.
//
// The scheduling tests are built so the interesting path is *forced*, not
// raced into: the throttle test constructs a graph whose backlog cannot
// drain until the creator gives up, and the parking tests block pool
// workers on children or tokens that only a fresh fiber of the same thread
// can get past.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/engine/buffer_table.hpp"
#include "thread_count.hpp"

namespace jade {
namespace {

using namespace std::chrono_literals;

TEST(BufferTable, CreatePutGetRoundtrip) {
  BufferTable bt;
  std::byte* p = bt.create(7, 16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(bt.size(7), 16u);
  EXPECT_EQ(bt.data(7), p);
  // New buffers are zero-filled.
  for (std::byte b : bt.get(7)) EXPECT_EQ(b, std::byte{0});
  std::vector<std::byte> v(16);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::byte>(i * 3 + 1);
  bt.put(7, v);
  EXPECT_EQ(bt.get(7), v);
}

TEST(BufferTable, PointersStayStableAcrossManyCreates) {
  // acquire_bytes hands out raw pointers that tasks hold with no lock; any
  // rehash/move of the backing storage would invalidate them.
  BufferTable bt;
  constexpr ObjectId kObjects = 1000;
  std::vector<std::byte*> ptrs;
  for (ObjectId id = 0; id < kObjects; ++id) ptrs.push_back(bt.create(id, 8));
  for (ObjectId id = 0; id < kObjects; ++id) {
    EXPECT_EQ(bt.data(id), ptrs[id]);
    EXPECT_EQ(bt.size(id), 8u);
  }
}

// Chains of read-write tasks interleaved with commuting accumulations: the
// per-object chains are order-determined by the serial elaboration, and the
// commute sum is order-free, so every engine and worker count must produce
// the SerialEngine's exact result.
TEST(ThreadStress, ChainsAndCommutersMatchSerialExactly) {
  constexpr int kTasks = 400;
  constexpr int kObjects = 8;
  auto run = [&](EngineKind kind, int threads) {
    RuntimeConfig cfg;
    cfg.engine = kind;
    cfg.threads = threads;
    Runtime rt(std::move(cfg));
    std::vector<SharedRef<std::uint64_t>> objs;
    for (int i = 0; i < kObjects; ++i)
      objs.push_back(rt.alloc<std::uint64_t>(1));
    auto acc = rt.alloc<std::uint64_t>(1, "acc");
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < kTasks; ++i) {
        auto o = objs[static_cast<std::size_t>(i % kObjects)];
        ctx.withonly(
            [&](AccessDecl& d) {
              d.rd_wr(o);
              d.cm(acc);
            },
            [o, acc, i](TaskContext& t) {
              auto h = t.read_write(o);
              h[0] = h[0] * 3 + static_cast<std::uint64_t>(i);
              t.commute(acc)[0] += h[0];
            });
      }
    });
    std::vector<std::uint64_t> out;
    for (auto& o : objs) out.push_back(rt.get(o)[0]);
    out.push_back(rt.get(acc)[0]);
    return out;
  };
  const auto serial = run(EngineKind::kSerial, 1);
  for (int workers : {1, 2, 8})
    EXPECT_EQ(run(EngineKind::kThread, workers), serial)
        << "workers=" << workers;
}

// Throttle give-up (the Section 3.3 deadlock escape): the root takes the
// accumulator's commute token, then creates children that all need it.  The
// first child starts and sleeps on the root's token; the rest queue behind
// the first child's write chain.  The backlog therefore CANNOT drain while
// the root sleeps in the throttle — every other thread ends up asleep with
// nothing ready, and the only legal exit is the creator giving up
// throttling and finishing its body (which releases the token).
TEST(ThreadStress, ThrottledCreatorGivesUpInsteadOfDeadlocking) {
  constexpr int kKids = 12;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 2;
  cfg.sched.throttle.enabled = true;
  cfg.sched.throttle.high_water = 4;
  cfg.sched.throttle.low_water = 2;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  auto w = rt.alloc<std::uint64_t>(1, "w");
  rt.run([&](TaskContext& ctx) {
    // Legal root access: no created task holds a declaration on acc yet.
    // This takes the engine-level commute token, held until the body ends.
    ctx.commute(acc)[0] = 1;
    for (int i = 0; i < kKids; ++i) {
      ctx.withonly(
          [&](AccessDecl& d) {
            d.cm(acc);
            d.rd_wr(w);
          },
          [acc, w](TaskContext& t) {
            t.commute(acc)[0] += 1;
            t.read_write(w)[0] += 1;
          });
    }
  });
  EXPECT_EQ(rt.get(acc)[0], 1u + kKids);
  EXPECT_EQ(rt.get(w)[0], static_cast<std::uint64_t>(kKids));
  EXPECT_GE(rt.stats().throttle_suspensions, 1u);
  EXPECT_GE(rt.stats().throttle_giveups, 1u);
}

// A blocked task parks its fiber, not its thread: with a one-worker pool,
// that worker's task blocks on a child it created — a child no other thread
// can run (the root's thread runs nothing but its body until the body
// returns).  The worker must continue on a fresh fiber and run the child
// itself; inlining the child on the blocked task's stack is not an option
// the engine may take (DESIGN.md, "No inline helping").
TEST(ThreadStress, BlockedTaskParksAndItsThreadRunsTheChild) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 1;
  Runtime rt(std::move(cfg));
  auto w = rt.alloc<std::uint64_t>(1, "w");
  std::atomic<bool> done{false};
  std::thread::id parent_thread;
  std::thread::id child_thread;
  rt.run([&](TaskContext& ctx) {
    ctx.withonly([&](AccessDecl& d) { d.rd_wr(w); },
                 [&, w](TaskContext& t) {
                   parent_thread = std::this_thread::get_id();
                   // Child's record enqueues ahead of ours; accessing w now
                   // must block until the child retires it.
                   t.withonly([&](AccessDecl& d) { d.rd_wr(w); },
                              [&, w](TaskContext& c) {
                                child_thread = std::this_thread::get_id();
                                c.read_write(w)[0] = 42;
                                done.store(true, std::memory_order_release);
                              });
                   t.read_write(w)[0] += 1;
                 });
    // Keep the root thread out of the task-stealing pool until the child
    // ran: only the blocked worker's thread can execute it.
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  EXPECT_EQ(rt.get(w)[0], 43u);
  EXPECT_EQ(child_thread, parent_thread);
  EXPECT_GE(rt.stats().fiber_parks, 1u);
}

// The thread bound: 100 tasks on 2 workers all commute on one object and
// hold its token for about 300 us each, so nearly every task waits for the
// token while another holds it.  Waiting tasks park their fibers; no
// thread is started for them, so the process never has more than the
// caller's thread plus the two workers.
TEST(ThreadStress, TokenWaitersNeverAddThreads) {
  constexpr int kTasks = 100;
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 2;
  Runtime rt(std::move(cfg));
  auto acc = rt.alloc<std::uint64_t>(1, "acc");
  const int before = process_threads();
  int peak = before;  // written only while holding acc's commute token
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < kTasks; ++i) {
      ctx.withonly([&](AccessDecl& d) { d.cm(acc); },
                   [acc, &peak](TaskContext& t) {
                     t.commute(acc)[0] += 1;
                     std::this_thread::sleep_for(300us);
                     peak = std::max(peak, process_threads());
                   });
    }
  });
  EXPECT_EQ(rt.get(acc)[0], static_cast<std::uint64_t>(kTasks));
  EXPECT_LE(peak, before + 2);
  EXPECT_GE(rt.stats().fiber_parks, 1u);
}

}  // namespace
}  // namespace jade
