// ThreadEngine-specific concurrency tests: the sharded buffer table, the
// determinism contract under real parallelism (results must equal the
// SerialEngine's bit-for-bit), the throttle deadlock-escape, tasks that
// block parking their fibers instead of their threads, and tasks that wait
// in their creator's batch before they are linked.
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
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jade/core/runtime.hpp"
#include "bounded_wait.hpp"
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

// --- batched linking ---------------------------------------------------------
//
// ThreadEngine keeps the tasks a body creates in its thread's batch while
// every thread is busy and a task is ready, and links them later.  These
// tests force that state on a one-worker pool, where it is deterministic:
// the worker is kept in a task until the test lets it go, with one ready
// task queued behind it, so the next tasks created wait in a batch.  Each
// program also runs on SerialEngine (`pinned` false: nothing waits), and
// the two runs must agree.

RuntimeConfig one_worker(EngineKind kind) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = 1;
  return cfg;
}

void yield_until(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Keeps ThreadEngine's only worker in a task until release(), with one
/// ready task queued behind it: until then, the tasks the root creates wait
/// in the root's batch.  The flags are shared with the task, which may
/// still be running when the root's body (and this object) has ended.
class PinnedWorker {
 public:
  PinnedWorker(TaskContext& ctx, bool pinned) {
    auto started = std::make_shared<std::atomic<bool>>(false);
    ctx.withonly([](AccessDecl&) {},
                 [started, released = released_, pinned](TaskContext&) {
                   started->store(true, std::memory_order_release);
                   if (pinned) yield_until(*released);
                 });
    if (pinned) yield_until(*started);
    ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
  }
  void release() { released_->store(true, std::memory_order_release); }

 private:
  std::shared_ptr<std::atomic<bool>> released_ =
      std::make_shared<std::atomic<bool>>(false);
};

/// Runs `body` as a task declaring `spec` on ThreadEngine's only worker,
/// with one ready task queued behind it once it has started, so the tasks
/// the body creates wait in the worker's batch.  `queue_first` runs in the
/// root after the body has started, before the ready task is created.  The
/// root then waits, outside the engine, until the body has finished.
void run_creator(TaskContext& ctx, bool pinned, const TaskContext::SpecFn& spec,
                 std::function<void(TaskContext&)> body,
                 const std::function<void()>& queue_first = [] {}) {
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto go = std::make_shared<std::atomic<bool>>(false);
  auto finished = std::make_shared<std::atomic<bool>>(false);
  ctx.withonly(spec, [=](TaskContext& t) {
    started->store(true, std::memory_order_release);
    if (pinned) yield_until(*go);
    struct Finish {
      std::atomic<bool>& flag;
      ~Finish() { flag.store(true, std::memory_order_release); }
    } finish{*finished};
    body(t);
  });
  if (pinned) yield_until(*started);
  queue_first();
  ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
  go->store(true, std::memory_order_release);
  if (pinned) yield_until(*finished);
}

// The root's held task can be linked only by another thread: the root
// waits for it outside the engine, so it never makes the engine call that
// would link its batch.  The worker, once it has run out of work and
// finished its spin, must link the batch before it parks.
TEST(BatchedLinking, HeldTaskOnlyAnotherThreadCanLinkStillRuns) {
  const auto run = [](EngineKind kind) {
    Runtime rt(one_worker(kind));
    auto out = rt.alloc<std::uint64_t>(1, "out");
    std::atomic<bool> ran{false};
    rt.run([&](TaskContext& ctx) {
      PinnedWorker pin(ctx, kind == EngineKind::kThread);
      ctx.withonly([&](AccessDecl& d) { d.wr(out); },
                   [&, out](TaskContext& t) {
                     t.write(out)[0] = 7;
                     ran.store(true, std::memory_order_release);
                   });
      pin.release();
      yield_until(ran);
    });
    return rt.get(out)[0];
  };
  run_bounded("held task linked by another thread", [&] {
    EXPECT_EQ(run(EngineKind::kThread), run(EngineKind::kSerial));
  });
}

// The creator's accessor follows a writer child still in its batch.  The
// lock-free accessor path (Serializer::granted) would let the read through,
// so the accessor must link the batch first and wait for the child.
TEST(BatchedLinking, AccessorAfterHeldWriterReadsItsWrite) {
  const auto run = [](EngineKind kind) {
    Runtime rt(one_worker(kind));
    auto x = rt.alloc<std::uint64_t>(1, "x");
    auto y = rt.alloc<std::uint64_t>(1, "y");
    rt.run([&](TaskContext& ctx) {
      run_creator(
          ctx, kind == EngineKind::kThread,
          [&](AccessDecl& d) {
            d.rd_wr(x);
            d.wr(y);
          },
          [x, y](TaskContext& t) {
            t.withonly([&](AccessDecl& d) { d.wr(x); },
                       [x](TaskContext& c) { c.write(x)[0] = 42; });
            t.write(y)[0] = t.read(x)[0];
          });
    });
    return rt.get(y)[0];
  };
  run_bounded("accessor after a held writer", [&] {
    EXPECT_EQ(run(EngineKind::kSerial), 42u);
    EXPECT_EQ(run(EngineKind::kThread), 42u);
  });
}

// The creator retires its right on x while a writer child of x is still in
// its batch; a later sibling reading x is already linked behind the
// creator.  The with-cont must link the child first, so that it keeps its
// place ahead of the sibling.
TEST(BatchedLinking, WithContAfterHeldChildKeepsItAhead) {
  const auto run = [](EngineKind kind) {
    Runtime rt(one_worker(kind));
    auto x = rt.alloc<std::uint64_t>(1, "x");
    auto z = rt.alloc<std::uint64_t>(1, "z");
    rt.run([&](TaskContext& ctx) {
      run_creator(
          ctx, kind == EngineKind::kThread,
          [&](AccessDecl& d) { d.rd_wr(x); },
          [x](TaskContext& t) {
            t.withonly([&](AccessDecl& d) { d.wr(x); },
                       [x](TaskContext& c) { c.write(x)[0] = 42; });
            t.with_cont([&](AccessDecl& d) {
              d.no_rd(x);
              d.no_wr(x);
            });
          },
          [&] {
            ctx.withonly(
                [&](AccessDecl& d) {
                  d.rd(x);
                  d.wr(z);
                },
                [x, z](TaskContext& t) { t.write(z)[0] = t.read(x)[0]; });
          });
    });
    return rt.get(z)[0];
  };
  run_bounded("with-cont after a held child", [&] {
    EXPECT_EQ(run(EngineKind::kSerial), 42u);
    EXPECT_EQ(run(EngineKind::kThread), 42u);
  });
}

// A full batch links at its last task; one more task starts a new batch,
// linked when the root's body returns.  Each task of the chain reads the
// previous one's result, so any task linked out of creation order changes
// the final value.
TEST(BatchedLinking, FullBatchAndOneMoreLinkInCreationOrder) {
  constexpr int kBatch = 64;  // ThreadEngine::kBatchSize
  const auto run = [](EngineKind kind, int tasks) {
    Runtime rt(one_worker(kind));
    auto x = rt.alloc<std::uint64_t>(1, "x");
    rt.run([&](TaskContext& ctx) {
      PinnedWorker pin(ctx, kind == EngineKind::kThread);
      for (int i = 0; i < tasks; ++i)
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(x); },
                     [x, i](TaskContext& t) {
                       auto v = t.read_write(x);
                       v[0] = v[0] * 3 + static_cast<std::uint64_t>(i);
                     });
      pin.release();
    });
    return rt.get(x)[0];
  };
  run_bounded("full batch and one more", [&] {
    for (const int tasks : {kBatch, kBatch + 1})
      EXPECT_EQ(run(EngineKind::kThread, tasks),
                run(EngineKind::kSerial, tasks))
          << tasks << " tasks";
  });
}

// A body that throws while it holds a batch drops the batch: run() raises
// the body's error, as SerialEngine does, and nothing waits for the
// dropped tasks.  Both the root's body and a task's body are checked.  The
// dropped tasks still count as created: the stats and the registry agree,
// and the root's program creates as many tasks as on SerialEngine.
TEST(BatchedLinking, BodyThatThrowsWithAHeldBatchFailsTheRun) {
  const auto root_throws = [](Runtime& rt, bool pinned) {
    auto out = rt.alloc<std::uint64_t>(1, "out");
    rt.run([&](TaskContext& ctx) {
      // ThreadEngine's only worker sleeps in the first task past the throw,
      // with a ready task queued behind it: the writer waits in the root's
      // batch, and only the root's failure path sees it.
      auto started = std::make_shared<std::atomic<bool>>(false);
      ctx.withonly([](AccessDecl&) {}, [started, pinned](TaskContext&) {
        started->store(true, std::memory_order_release);
        if (pinned) std::this_thread::sleep_for(50ms);
      });
      if (pinned) yield_until(*started);
      ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
      ctx.withonly([&](AccessDecl& d) { d.wr(out); },
                   [out](TaskContext& t) { t.write(out)[0] = 1; });
      throw std::runtime_error("root threw holding a batch");
    });
  };
  const auto task_throws = [](Runtime& rt, bool pinned) {
    auto out = rt.alloc<std::uint64_t>(1, "out");
    rt.run([&](TaskContext& ctx) {
      run_creator(ctx, pinned, [&](AccessDecl& d) { d.wr(out); },
                  [out](TaskContext& t) {
                    t.withonly([&](AccessDecl& d) { d.wr(out); },
                               [out](TaskContext& c) { c.write(out)[0] = 1; });
                    throw std::runtime_error("task threw holding a batch");
                  });
    });
  };
  struct Outcome {
    std::string error = "no error";
    std::uint64_t created = 0;
  };
  using Program = std::function<void(Runtime&, bool)>;
  const auto outcome_of = [](const Program& program, EngineKind kind) {
    Runtime rt(one_worker(kind));
    Outcome o;
    try {
      program(rt, kind == EngineKind::kThread);
    } catch (const std::runtime_error& e) {
      o.error = e.what();
    }
    o.created = rt.stats().tasks_created;
    EXPECT_EQ(rt.metrics().counter("engine.tasks_created").value(), o.created);
    return o;
  };
  run_bounded("body that throws holding a batch", [&] {
    const Outcome serial_root = outcome_of(root_throws, EngineKind::kSerial);
    const Outcome thread_root = outcome_of(root_throws, EngineKind::kThread);
    EXPECT_NE(serial_root.error, "no error");
    EXPECT_EQ(thread_root.error, serial_root.error);
    EXPECT_EQ(thread_root.created, serial_root.created);
    // Not comparable by count: on SerialEngine the task's error ends the
    // root's body before it creates the task queued behind the creator.
    const Outcome serial_task = outcome_of(task_throws, EngineKind::kSerial);
    EXPECT_NE(serial_task.error, "no error");
    EXPECT_EQ(outcome_of(task_throws, EngineKind::kThread).error,
              serial_task.error);
  });
}

}  // namespace
}  // namespace jade
