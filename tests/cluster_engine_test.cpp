// ClusterEngine end-to-end tests: real forked worker processes over Unix
// sockets, verified against SerialEngine on the same program text (the
// registry's portable cluster::spawn makes one program run on both).
//
// Covers the PR's acceptance criteria: a Jade program across 4 worker
// processes with serial-identical results; worker-spawned children;
// with-cont conversion and retire (a retirement is one frame, and a later
// access of the retired right fails as on SerialEngine); commute
// serialization; placement; error propagation across the process
// boundary; engine reuse with host writes between runs; the debug
// coherence probe; and recovery from a SIGKILLed worker via the heartbeat
// failure detector.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "jade/apps/relax.hpp"
#include "jade/cluster/cluster_engine.hpp"
#include "jade/cluster/frame.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/core/runtime.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

using cluster::BodyRegistry;
using cluster::get_ref;
using cluster::put_ref;

// --- registered bodies (file scope: registered before any engine forks) -----

const int kLeafSum = BodyRegistry::instance().ensure(
    "test.leaf_sum", [](TaskContext& t, WireReader& r) {
      const auto src = get_ref<double>(r);
      const auto dst = get_ref<double>(r);
      const double scale = r.get_f64();
      double sum = 0;
      for (double v : t.read(src)) sum += v;
      t.write(dst)[0] = sum * scale;
      t.charge(1.0);
    });

const int kChainStep = BodyRegistry::instance().ensure(
    "test.chain_step", [](TaskContext& t, WireReader& r) {
      const auto cell = get_ref<double>(r);
      const double inc = r.get_f64();
      auto c = t.read_write(cell);
      c[0] = c[0] * 2.0 + inc;
    });

const int kCommuteAdd = BodyRegistry::instance().ensure(
    "test.commute_add", [](TaskContext& t, WireReader& r) {
      const auto acc = get_ref<double>(r);
      const double delta = r.get_f64();
      t.commute(acc)[0] += delta;
    });

const int kConvertWrite = BodyRegistry::instance().ensure(
    "test.convert_write", [](TaskContext& t, WireReader& r) {
      const auto src = get_ref<double>(r);
      const auto dst = get_ref<double>(r);
      const double scale = r.get_f64();
      double sum = 0;
      for (double v : t.read(src)) sum += v;
      // Deferred-write right converts mid-body (Section 4.2).
      t.with_cont([&](AccessDecl& d) { d.wr(dst); });
      t.write(dst)[0] = sum * scale;
    });

const int kWriteThenRetire = BodyRegistry::instance().ensure(
    "test.write_then_retire", [](TaskContext& t, WireReader& r) {
      const auto obj = get_ref<double>(r);
      const double v = r.get_f64();
      t.read_write(obj)[0] = v;
      // Retire both rights: successors may read while this task lingers.
      t.with_cont([&](AccessDecl& d) {
        d.no_rd(obj);
        d.no_wr(obj);
      });
      t.charge(1.0);
    });

const int kSetVal = BodyRegistry::instance().ensure(
    "test.set_val", [](TaskContext& t, WireReader& r) {
      const auto dst = get_ref<double>(r);
      t.write(dst)[0] = r.get_f64();
    });

const int kSpawner = BodyRegistry::instance().ensure(
    "test.spawner", [](TaskContext& t, WireReader& r) {
      const std::uint32_t n = r.get_u32();
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto dst = get_ref<double>(r);
        WireWriter args;
        put_ref(args, dst);
        args.put_f64(3.0 * k + 1.0);
        cluster::spawn(t, kSetVal, std::move(args),
                       [&](AccessDecl& d) { d.wr(dst); }, "set");
      }
    });

const int kWriteMachine = BodyRegistry::instance().ensure(
    "test.write_machine", [](TaskContext& t, WireReader& r) {
      const auto dst = get_ref<double>(r);
      t.write(dst)[0] = static_cast<double>(t.machine());
    });

const int kSpinWrite = BodyRegistry::instance().ensure(
    "test.spin_write", [](TaskContext& t, WireReader& r) {
      const auto dst = get_ref<double>(r);
      const double v = r.get_f64();
      const std::uint32_t ms = r.get_u32();
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
      while (std::chrono::steady_clock::now() < until) {
      }
      t.write(dst)[0] = v;
      t.charge(static_cast<double>(ms));
    });

const int kWriteThenThrow = BodyRegistry::instance().ensure(
    "test.write_then_throw", [](TaskContext& t, WireReader& r) {
      const auto obj = get_ref<double>(r);
      t.read_write(obj)[0] = -99.0;  // lands only in the worker's copy
      throw std::runtime_error("boom after a local write");
    });

const int kReadUndeclared = BodyRegistry::instance().ensure(
    "test.read_undeclared", [](TaskContext& t, WireReader& r) {
      const auto declared = get_ref<double>(r);
      const auto undeclared = get_ref<double>(r);
      (void)t.read(declared);
      (void)t.read(undeclared);  // not in the spec: must throw
    });

const int kRetireThenRead = BodyRegistry::instance().ensure(
    "test.retire_then_read", [](TaskContext& t, WireReader& r) {
      const auto obj = get_ref<double>(r);
      (void)t.read(obj);
      t.with_cont([&](AccessDecl& d) { d.no_rd(obj); });
      (void)t.read(obj);  // retired: must throw
    });

// Writes a Retire frame carrying `msg` straight onto the worker's socket (its
// only one), as a confused or hostile worker might.
void forge_retire(const cluster::WithContMsg& msg) {
  const std::vector<std::byte> frame =
      cluster::encode_frame(cluster::FrameType::kRetire, cluster::pack(msg));
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISSOCK(st.st_mode)) continue;
    if (::write(fd, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size()))
      throw std::runtime_error("short write of the forged frame");
    return;
  }
  throw std::runtime_error("worker socket not found");
}

// A Retire for a task this worker does not run.
const int kForgeRetire = BodyRegistry::instance().ensure(
    "test.forge_retire", [](TaskContext&, WireReader&) {
      cluster::WithContMsg msg;
      msg.task = std::uint64_t{1} << 40;
      forge_retire(msg);
    });

// A Retire for the worker's own task (id 1: the root's only child) that
// carries a payload of 42.0 for an object the task declared only for reading.
const int kForgeWriteback = BodyRegistry::instance().ensure(
    "test.forge_writeback", [](TaskContext&, WireReader& r) {
      const auto obj = get_ref<double>(r);
      cluster::WithContMsg msg;
      msg.task = 1;
      cluster::WithContItem item;
      item.req.obj = obj.id();
      item.req.remove = access::kRead;
      item.has_payload = true;
      const double forged = 42.0;
      item.payload.resize(sizeof forged);
      std::memcpy(item.payload.data(), &forged, sizeof forged);
      msg.items.push_back(std::move(item));
      forge_retire(msg);
    });

// --- helpers ----------------------------------------------------------------

RuntimeConfig cluster_config(int workers = 4, int spares = 1) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kCluster;
  cfg.cluster_proc.workers = workers;
  cfg.cluster_proc.spares = spares;
  return cfg;
}

RuntimeConfig serial_config() {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSerial;
  return cfg;
}

cluster::ClusterEngine& cluster_of(Runtime& rt) {
  auto* eng = dynamic_cast<cluster::ClusterEngine*>(&rt.engine());
  EXPECT_NE(eng, nullptr);
  return *eng;
}

/// The fan-out program: one independent reader of `src` per `out` element.
void spawn_fanout(TaskContext& ctx, const SharedRef<double>& src,
                  const std::vector<SharedRef<double>>& out) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    WireWriter args;
    put_ref(args, src);
    put_ref(args, out[k]);
    args.put_f64(static_cast<double>(k) + 1.0);
    cluster::spawn(ctx, kLeafSum, std::move(args), [&](AccessDecl& d) {
      d.rd(src);
      d.wr(out[k]);
    });
  }
}

/// Runs the fan-out program with `leaves` readers on `cfg` and returns the
/// output vector.
std::vector<double> run_fanout(const RuntimeConfig& cfg, int leaves) {
  Runtime rt(cfg);
  const std::vector<double> init = {1.0, 2.5, 4.0, -1.5};
  auto src = rt.alloc_init<double>(init, "src");
  std::vector<SharedRef<double>> out;
  for (int k = 0; k < leaves; ++k)
    out.push_back(rt.alloc<double>(1, "out" + std::to_string(k)));
  rt.run([&](TaskContext& ctx) { spawn_fanout(ctx, src, out); });
  std::vector<double> result;
  for (auto& o : out) result.push_back(rt.get(o)[0]);
  return result;
}

// --- tests ------------------------------------------------------------------

TEST(ClusterEngine, ReadFanoutMatchesSerial) {
  const std::vector<double> serial = run_fanout(serial_config(), 16);
  const std::vector<double> clustered = run_fanout(cluster_config(), 16);
  EXPECT_EQ(clustered, serial);
}

TEST(ClusterEngine, DependencyChainMatchesSerial) {
  const auto run_chain = [](const RuntimeConfig& cfg) {
    Runtime rt(cfg);
    auto cell = rt.alloc<double>(1, "cell");
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < 12; ++i) {
        WireWriter args;
        put_ref(args, cell);
        args.put_f64(i + 1.0);
        cluster::spawn(ctx, kChainStep, std::move(args),
                       [&](AccessDecl& d) { d.rd_wr(cell); });
      }
    });
    return rt.get(cell)[0];
  };
  // Every chain hop crosses process boundaries on the cluster: the writer
  // ships its result back and the next reader gets a fresh payload.
  EXPECT_DOUBLE_EQ(run_chain(cluster_config()), run_chain(serial_config()));
}

TEST(ClusterEngine, CommuteAccumulatorMatchesSerial) {
  const auto run_acc = [](const RuntimeConfig& cfg) {
    Runtime rt(cfg);
    auto acc = rt.alloc<double>(1, "acc");
    rt.run([&](TaskContext& ctx) {
      for (int k = 1; k <= 16; ++k) {
        WireWriter args;
        put_ref(args, acc);
        args.put_f64(static_cast<double>(k));
        cluster::spawn(ctx, kCommuteAdd, std::move(args),
                       [&](AccessDecl& d) { d.cm(acc); });
      }
    });
    return rt.get(acc)[0];
  };
  EXPECT_DOUBLE_EQ(run_acc(cluster_config()), 136.0);
  EXPECT_DOUBLE_EQ(run_acc(serial_config()), 136.0);
}

TEST(ClusterEngine, WithContConversionMatchesSerial) {
  const auto run_prog = [](const RuntimeConfig& cfg) {
    Runtime rt(cfg);
    const std::vector<double> init = {3.0, 4.0};
    auto src = rt.alloc_init<double>(init, "src");
    auto dst = rt.alloc<double>(1, "dst");
    rt.run([&](TaskContext& ctx) {
      WireWriter args;
      put_ref(args, src);
      put_ref(args, dst);
      args.put_f64(10.0);
      cluster::spawn(ctx, kConvertWrite, std::move(args),
                     [&](AccessDecl& d) {
                       d.rd(src);
                       d.df_wr(dst);
                     });
    });
    return rt.get(dst)[0];
  };
  EXPECT_DOUBLE_EQ(run_prog(cluster_config()), 70.0);
  EXPECT_DOUBLE_EQ(run_prog(serial_config()), 70.0);
}

TEST(ClusterEngine, WithContRetireReleasesSuccessors) {
  const auto run_prog = [](const RuntimeConfig& cfg) {
    Runtime rt(cfg);
    auto obj = rt.alloc<double>(1, "obj");
    auto seen = rt.alloc<double>(1, "seen");
    rt.run([&](TaskContext& ctx) {
      WireWriter a1;
      put_ref(a1, obj);
      a1.put_f64(42.0);
      cluster::spawn(ctx, kWriteThenRetire, std::move(a1),
                     [&](AccessDecl& d) { d.rd_wr(obj); });
      WireWriter a2;
      put_ref(a2, obj);
      put_ref(a2, seen);
      a2.put_f64(1.0);
      cluster::spawn(ctx, kLeafSum, std::move(a2), [&](AccessDecl& d) {
        d.rd(obj);
        d.wr(seen);
      });
    });
    return rt.get(seen)[0];
  };
  // The retire flushed 42.0 to the coordinator, so the successor's read —
  // on a different worker — must observe it.
  EXPECT_DOUBLE_EQ(run_prog(cluster_config()), 42.0);
  EXPECT_DOUBLE_EQ(run_prog(serial_config()), 42.0);
}

TEST(ClusterEngine, WorkerSpawnedChildrenMatchSerial) {
  const auto run_prog = [](const RuntimeConfig& cfg) {
    constexpr int kChildren = 8;
    Runtime rt(cfg);
    std::vector<SharedRef<double>> out;
    for (int k = 0; k < kChildren; ++k)
      out.push_back(rt.alloc<double>(1, "out" + std::to_string(k)));
    rt.run([&](TaskContext& ctx) {
      WireWriter args;
      args.put_u32(kChildren);
      for (auto& o : out) put_ref(args, o);
      cluster::spawn(ctx, kSpawner, std::move(args), [&](AccessDecl& d) {
        for (auto& o : out) d.df_wr(o);
      });
    });
    std::vector<double> result;
    for (auto& o : out) result.push_back(rt.get(o)[0]);
    return result;
  };
  const auto serial = run_prog(serial_config());
  const auto clustered = run_prog(cluster_config());
  EXPECT_EQ(clustered, serial);
  for (int k = 0; k < 8; ++k)
    EXPECT_DOUBLE_EQ(clustered[static_cast<std::size_t>(k)], 3.0 * k + 1.0);
}

TEST(ClusterEngine, PlacementPinsTasksToMachines) {
  Runtime rt(cluster_config(4));
  std::vector<SharedRef<double>> out;
  for (int m = 0; m < 4; ++m)
    out.push_back(rt.alloc<double>(1, "m" + std::to_string(m)));
  rt.run([&](TaskContext& ctx) {
    for (int m = 0; m < 4; ++m) {
      WireWriter args;
      put_ref(args, out[static_cast<std::size_t>(m)]);
      cluster::spawn(ctx, kWriteMachine, std::move(args),
                     [&](AccessDecl& d) { d.wr(out[static_cast<std::size_t>(m)]); },
                     "pinned", /*placement=*/m);
    }
  });
  for (int m = 0; m < 4; ++m)
    EXPECT_DOUBLE_EQ(rt.get(out[static_cast<std::size_t>(m)])[0],
                     static_cast<double>(m))
        << "task pinned to machine " << m << " ran elsewhere";
}

TEST(ClusterEngine, UndeclaredAccessCrossesTheProcessBoundary) {
  Runtime rt(cluster_config());
  auto declared = rt.alloc<double>(1, "declared");
  auto undeclared = rt.alloc<double>(1, "undeclared");
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 WireWriter args;
                 put_ref(args, declared);
                 put_ref(args, undeclared);
                 cluster::spawn(ctx, kReadUndeclared, std::move(args),
                                [&](AccessDecl& d) { d.rd(declared); });
               }),
               UndeclaredAccessError);
}

TEST(ClusterEngine, ClosureSpawnRejectedWithClearError) {
  Runtime rt(cluster_config());
  auto obj = rt.alloc<double>(1, "x");
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 ctx.withonly([&](AccessDecl& d) { d.wr(obj); },
                              [](TaskContext&) {});
               }),
               ConfigError);
}

TEST(ClusterEngine, EngineReuseShipsFreshHostWrites) {
  Runtime rt(cluster_config());
  const std::vector<double> first = {1.0, 1.0};
  auto src = rt.alloc_init<double>(first, "src");
  auto dst = rt.alloc<double>(1, "dst");
  const auto program = [&](TaskContext& ctx) {
    WireWriter args;
    put_ref(args, src);
    put_ref(args, dst);
    args.put_f64(1.0);
    cluster::spawn(ctx, kLeafSum, std::move(args), [&](AccessDecl& d) {
      d.rd(src);
      d.wr(dst);
    });
  };
  rt.run(program);
  EXPECT_DOUBLE_EQ(rt.get(dst)[0], 2.0);

  // Host write between runs: workers' cached copies are now stale and the
  // shipped-version protocol must re-ship, not reuse.
  const std::vector<double> second = {5.0, 7.0};
  rt.put(src, std::span<const double>(second));
  rt.run(program);
  EXPECT_DOUBLE_EQ(rt.get(dst)[0], 12.0);
}

TEST(ClusterEngine, DebugProbeConfirmsWorkerCopiesMatchCanonical) {
  Runtime rt(cluster_config());
  const std::vector<double> init = {2.0, 3.0, 5.0};
  auto src = rt.alloc_init<double>(init, "src");
  std::vector<SharedRef<double>> out;
  for (int k = 0; k < 8; ++k)
    out.push_back(rt.alloc<double>(1, "out" + std::to_string(k)));
  rt.run([&](TaskContext& ctx) {
    for (int k = 0; k < 8; ++k) {
      WireWriter args;
      put_ref(args, src);
      put_ref(args, out[static_cast<std::size_t>(k)]);
      args.put_f64(k + 1.0);
      cluster::spawn(ctx, kLeafSum, std::move(args), [&](AccessDecl& d) {
        d.rd(src);
        d.wr(out[static_cast<std::size_t>(k)]);
      });
    }
  });
  cluster::ClusterEngine& eng = cluster_of(rt);
  EXPECT_TRUE(eng.debug_probe(src.id()));
  for (auto& o : out) EXPECT_TRUE(eng.debug_probe(o.id()));
}

TEST(ClusterEngine, FailedWriterLeavesNoStaleCopyBehind) {
  // One worker, so the rerun's reader lands where the failed writer ran.
  Runtime rt(cluster_config(1, /*spares=*/0));
  const std::vector<double> init = {5.0};
  auto obj = rt.alloc_init<double>(init, "obj");
  auto seen = rt.alloc<double>(1, "seen");
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 WireWriter args;
                 put_ref(args, obj);
                 cluster::spawn(ctx, kWriteThenThrow, std::move(args),
                                [&](AccessDecl& d) { d.rd_wr(obj); });
               }),
               JadeError);
  EXPECT_DOUBLE_EQ(rt.get(obj)[0], 5.0);  // no writeback reached canonical

  // The worker's copy holds the failed task's write, so the reader must
  // be shipped the canonical bytes, not reuse that copy.
  rt.run([&](TaskContext& ctx) {
    WireWriter args;
    put_ref(args, obj);
    put_ref(args, seen);
    args.put_f64(1.0);
    cluster::spawn(ctx, kLeafSum, std::move(args), [&](AccessDecl& d) {
      d.rd(obj);
      d.wr(seen);
    });
  });
  EXPECT_DOUBLE_EQ(rt.get(seen)[0], 5.0);
}

TEST(ClusterEngine, SurvivesSigkilledWorker) {
  RuntimeConfig cfg = cluster_config(4, /*spares=*/2);
  cfg.cluster_proc.heartbeat_interval = 0.01;
  cfg.cluster_proc.miss_threshold = 3;
  Runtime rt(cfg);
  constexpr int kTasks = 24;
  std::vector<SharedRef<double>> out;
  for (int k = 0; k < kTasks; ++k)
    out.push_back(rt.alloc<double>(1, "out" + std::to_string(k)));

  cluster::ClusterEngine& eng = cluster_of(rt);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const pid_t pid = eng.worker_pid(2);
    if (pid > 0) ::kill(pid, SIGKILL);
  });
  rt.run([&](TaskContext& ctx) {
    for (int k = 0; k < kTasks; ++k) {
      WireWriter args;
      put_ref(args, out[static_cast<std::size_t>(k)]);
      args.put_f64(k + 0.5);
      args.put_u32(15);  // ms of spin: the kill lands mid-run
      cluster::spawn(ctx, kSpinWrite, std::move(args), [&](AccessDecl& d) {
        d.wr(out[static_cast<std::size_t>(k)]);
      });
    }
  });
  killer.join();

  for (int k = 0; k < kTasks; ++k)
    EXPECT_DOUBLE_EQ(rt.get(out[static_cast<std::size_t>(k)])[0], k + 0.5);
  EXPECT_GE(rt.stats().machine_crashes, 1u);
  EXPECT_GE(rt.metrics().counter("cluster.worker_deaths").value(), 1.0);
  EXPECT_GE(rt.metrics().counter("cluster.workers_respawned").value(), 1.0);

  // The engine keeps serving after the crash: a fresh run still works.
  rt.run([&](TaskContext& ctx) {
    WireWriter args;
    put_ref(args, out[0]);
    args.put_f64(-1.0);
    args.put_u32(0);
    cluster::spawn(ctx, kSpinWrite, std::move(args),
                   [&](AccessDecl& d) { d.wr(out[0]); });
  });
  EXPECT_DOUBLE_EQ(rt.get(out[0])[0], -1.0);
}

TEST(ClusterEngine, BadOptionsRejected) {
  using cluster::ClusterEngine;
  using cluster::Options;
  {
    Options o;
    o.workers = 0;
    EXPECT_THROW(ClusterEngine e(o), ConfigError);
  }
  {
    Options o;
    o.spares = -1;
    EXPECT_THROW(ClusterEngine e(o), ConfigError);
  }
  {
    Options o;
    o.heartbeat_interval = 0;
    EXPECT_THROW(ClusterEngine e(o), ConfigError);
  }
  {
    Options o;
    o.miss_threshold = 0;
    EXPECT_THROW(ClusterEngine e(o), ConfigError);
  }
}

TEST(ClusterEngine, SpawnNamingUnallocatedObjectRejected) {
  Runtime rt(cluster_config(2, /*spares=*/0));
  auto real = rt.alloc<double>(1, "real");
  // A handle no allocation produced, fabricated from its wire form.
  WireWriter forged;
  forged.put_u64(999);
  forged.put_u64(1);
  const std::vector<std::byte> forged_bytes = forged.take();
  WireReader reader(forged_bytes);
  const auto fake = get_ref<double>(reader);
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 WireWriter args;
                 put_ref(args, fake);
                 args.put_f64(1.0);
                 cluster::spawn(ctx, kSetVal, std::move(args),
                                [&](AccessDecl& d) { d.wr(fake); });
               }),
               ConfigError);

  // The rejection left the engine usable.
  rt.run([&](TaskContext& ctx) {
    WireWriter args;
    put_ref(args, real);
    args.put_f64(2.5);
    cluster::spawn(ctx, kSetVal, std::move(args),
                   [&](AccessDecl& d) { d.wr(real); });
  });
  EXPECT_DOUBLE_EQ(rt.get(real)[0], 2.5);
}

TEST(ClusterEngine, WireTrafficIsOneDispatchAndOneDonePerTask) {
  // Every frame on the sockets is counted in RuntimeStats::messages.  Once
  // the workers are up, a read fan-out needs exactly one Dispatch and one
  // Done per task; the only other traffic is heartbeats.
  constexpr int kLeaves = 32;
  Runtime rt(cluster_config(2, /*spares=*/0));
  const std::vector<double> init = {1.0, 2.5, 4.0, -1.5};
  auto src = rt.alloc_init<double>(init, "src");
  std::vector<SharedRef<double>> out;
  for (int k = 0; k < kLeaves; ++k)
    out.push_back(rt.alloc<double>(1, "out" + std::to_string(k)));
  const auto program = [&](TaskContext& ctx) { spawn_fanout(ctx, src, out); };
  rt.run(program);  // warm-up: fork, handshake, activation
  // A host write makes both workers' copies of src stale: the second run
  // ships it again, inside Dispatch frames.
  const std::vector<double> fresh = {2.0, 2.0, 2.0, 2.0};
  rt.put(src, std::span<const double>(fresh));
  const std::uint64_t before = rt.stats().messages;
  rt.run(program);
  const RuntimeStats& s = rt.stats();
  EXPECT_EQ(s.messages - before - s.heartbeats_sent, 2u * kLeaves);
  for (int k = 0; k < kLeaves; ++k)
    EXPECT_DOUBLE_EQ(rt.get(out[static_cast<std::size_t>(k)])[0],
                     (k + 1.0) * 8.0);
}

TEST(ClusterEngine, StatsAggregateAcrossProcesses) {
  Runtime rt(cluster_config());
  const std::vector<double> init = {1.0, 2.0};
  auto src = rt.alloc_init<double>(init, "src");
  std::vector<SharedRef<double>> out;
  for (int k = 0; k < 8; ++k)
    out.push_back(rt.alloc<double>(1, "o" + std::to_string(k)));
  rt.run([&](TaskContext& ctx) {
    for (int k = 0; k < 8; ++k) {
      WireWriter args;
      put_ref(args, src);
      put_ref(args, out[static_cast<std::size_t>(k)]);
      args.put_f64(1.0);
      cluster::spawn(ctx, kLeafSum, std::move(args), [&](AccessDecl& d) {
        d.rd(src);
        d.wr(out[static_cast<std::size_t>(k)]);
      });
    }
  });
  EXPECT_GE(rt.stats().tasks_created, 8u);
  // Each kLeafSum charges 1.0 unit; charges cross the wire in DoneMsg.
  EXPECT_DOUBLE_EQ(rt.stats().total_charged_work, 8.0);
  EXPECT_GT(rt.stats().messages, 0u);
  EXPECT_GT(rt.stats().bytes_sent, 0u);
  EXPECT_GT(rt.stats().heartbeats_sent, 0u);
}

// relax's pipelined sweep converts each neighbor strip's df_rd to rd, copies
// the halo row and retires the right.  A conversion is a round trip
// (WithCont, WithContAck); a retirement only removes rights the task holds,
// so it is one Retire frame and no ack.  Every task is one Dispatch and one
// Done; the only other traffic is heartbeats.
TEST(ClusterEngine, PipelinedRelaxAcksConversionsButNotRetirements) {
  apps::RelaxConfig c;
  c.rows = 24;
  c.cols = 16;
  c.strips = 4;
  c.iterations = 3;
  c.pipelined = true;
  apps::RelaxState expect = apps::make_relax(c);
  apps::relax_run_serial(c, expect);

  Runtime rt(cluster_config(2, /*spares=*/0));
  auto w = apps::upload_relax(rt, c, apps::make_relax(c));
  // Warm-up: fork, handshake, activation.
  auto src = rt.alloc_init<double>(std::vector<double>{1.0}, "src");
  auto out = rt.alloc<double>(1, "out");
  rt.run([&](TaskContext& ctx) { spawn_fanout(ctx, src, {out}); });
  const std::uint64_t before = rt.stats().messages;
  rt.run([&](TaskContext& ctx) { apps::relax_run_jade(ctx, w); });
  const RuntimeStats& s = rt.stats();
  const std::uint64_t tasks = static_cast<std::uint64_t>(c.strips) *
                              static_cast<std::uint64_t>(c.iterations);
  // Interior strips have two neighbors, the end strips one.
  const std::uint64_t conversions = static_cast<std::uint64_t>(c.iterations) *
                                    2u *
                                    static_cast<std::uint64_t>(c.strips - 1);
  EXPECT_EQ(s.messages - before - s.heartbeats_sent,
            2u * tasks + 2u * conversions + conversions);
  EXPECT_EQ(apps::download_relax(rt, w).grid, expect.grid);
}

// A retirement travels one way, so the worker drops the right itself: a
// later read of the retired object must still fail with SerialEngine's
// error type and message (the cluster names the task after it).
TEST(ClusterEngine, ReadAfterRetireRaisesTheSerialError) {
  const auto error_of = [](const RuntimeConfig& cfg) -> std::string {
    Runtime rt(cfg);
    auto x = rt.alloc<double>(1, "x");
    try {
      rt.run([&](TaskContext& ctx) {
        WireWriter args;
        put_ref(args, x);
        cluster::spawn(ctx, kRetireThenRead, std::move(args),
                       [&](AccessDecl& d) { d.rd(x); });
      });
    } catch (const UndeclaredAccessError& e) {
      return e.what();
    }
    return "no UndeclaredAccessError";
  };
  const std::string serial = error_of(serial_config());
  const std::string cluster = error_of(cluster_config(2, /*spares=*/0));
  EXPECT_NE(serial, "no UndeclaredAccessError");
  EXPECT_EQ(cluster.substr(0, serial.size()), serial);
}

// A Retire names a task the sending worker does not run: an honest worker
// never sends one, so the coordinator aborts the run with ProtocolError.
TEST(ClusterEngine, RetireForATaskTheWorkerDoesNotRunIsProtocolError) {
  Runtime rt(cluster_config(2, /*spares=*/0));
  auto x = rt.alloc<double>(1, "x");
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 cluster::spawn(ctx, kForgeRetire, WireWriter{},
                                [&](AccessDecl& d) { d.rd(x); });
               }),
               ProtocolError);
}

// A writeback is accepted only from a task holding a write or commute right
// on the object; otherwise a reader could overwrite the canonical bytes.
TEST(ClusterEngine, WritebackWithoutAWriteRightIsProtocolError) {
  Runtime rt(cluster_config(2, /*spares=*/0));
  const std::vector<double> init = {1.0};
  auto x = rt.alloc_init<double>(init, "x");
  EXPECT_THROW(rt.run([&](TaskContext& ctx) {
                 WireWriter args;
                 put_ref(args, x);
                 cluster::spawn(ctx, kForgeWriteback, std::move(args),
                                [&](AccessDecl& d) { d.rd(x); });
               }),
               ProtocolError);
  EXPECT_EQ(rt.get(x)[0], 1.0);
}

}  // namespace
}  // namespace jade
