// Communication-protocol rework, isolated: the same three message-passing
// workloads with SchedPolicy::optimized_comm off ("before" — the original
// per-object request/copy/invalidate protocol) and on ("after" — request
// combining, version-based replica reuse, coalesced invalidation,
// conversion caching, deferred prefetch).
//
// The scenarios target the protocol's three classic hot spots:
//
//   read_fanout       one publisher on the home machine, n-1 readers
//                     re-reading a large object every round.  The publisher
//                     declares rd_wr conservatively but only rewrites the
//                     data on the first round (Jade specifications may
//                     over-approximate, Section 4), so the dropped replicas
//                     stay version-current: revalidation replaces 7 payload
//                     copies per round with control round-trips, and each
//                     reader's {x, meta} pair travels as one combined
//                     request.
//   write_invalidate  ownership ping-pong: a writer alternating between two
//                     machines while every machine re-reads.  The incoming
//                     writer already holds yesterday's replica, so the move
//                     upgrades in place (no payload), and the 6-7 replica
//                     invalidations coalesce into one multicast on the
//                     shared Ethernet.
//   cross_endian      a little-endian producer feeding three big-endian
//                     consumers on the heterogeneous workstation preset;
//                     the sender converts the representation once per data
//                     version instead of once per transfer.
//
// Every cell runs in simulated virtual time (deterministic), is verified
// against the serial reference engine before it is reported (a wrong answer
// exits non-zero), and the before/after rows are written as a JSON artifact
// (--json-out, default BENCH_comm_protocol.json).  The read-fanout payload
// reduction and the completion-time wins are asserted, not just printed:
// they are virtual-time results, so a regression is a real protocol change,
// not measurement noise.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "jade/core/runtime.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/stats.hpp"

namespace {

using namespace jade;

struct Row {
  std::string scenario;
  std::string config;  // "before" | "after"
  double finish_time = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages = 0;
  std::uint64_t requests_combined = 0;
  std::uint64_t replicas_reused = 0;
  std::uint64_t invalidations_coalesced = 0;
  std::uint64_t conversions_cached = 0;
  std::uint64_t bytes_avoided = 0;
};

/// A workload fills `check` with its observable results; the same body runs
/// on the serial reference and both protocol configurations, and the three
/// vectors must match exactly.
using Workload = std::vector<double> (*)(Runtime&);

Row measure(const std::string& scenario, bool optimized,
            const ClusterConfig& cluster, Workload workload,
            const std::vector<double>& expect) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSim;
  cfg.cluster = cluster;
  cfg.sched.optimized_comm = optimized;
  Runtime rt(std::move(cfg));
  const std::vector<double> got = workload(rt);
  if (got != expect) {
    std::cerr << scenario << " (" << (optimized ? "after" : "before")
              << ") verification failed against the serial reference\n";
    std::exit(1);
  }
  const RuntimeStats& s = rt.stats();
  Row r;
  r.scenario = scenario;
  r.config = optimized ? "after" : "before";
  r.finish_time = s.finish_time;
  r.payload_bytes = s.payload_bytes;
  r.bytes_sent = s.bytes_sent;
  r.messages = s.messages;
  r.requests_combined = s.requests_combined;
  r.replicas_reused = s.replicas_reused;
  r.invalidations_coalesced = s.invalidations_coalesced;
  r.conversions_cached = s.conversions_cached;
  r.bytes_avoided = s.bytes_avoided;
  return r;
}

std::vector<double> serial_reference(Workload workload) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kSerial;
  Runtime rt(std::move(cfg));
  return workload(rt);
}

// --- scenario 1: read fan-out ----------------------------------------------

constexpr int kFanMachines = 8;
constexpr int kFanRounds = 8;
constexpr std::size_t kFanX = 4096;    // doubles: 32 KB payload
constexpr std::size_t kFanMeta = 64;   // doubles: the small rider object

std::vector<double> read_fanout(Runtime& rt) {
  auto x = rt.alloc<double>(kFanX, "x", 0);
  auto meta = rt.alloc<double>(kFanMeta, "meta", 0);
  std::vector<SharedRef<double>> acc;
  for (int m = 1; m < kFanMachines; ++m)
    acc.push_back(rt.alloc<double>(1, "acc" + std::to_string(m),
                                   m % rt.machine_count()));
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < kFanRounds; ++r) {
      // The publisher conservatively declares rd_wr(x) every round but only
      // rewrites it once; meta changes every round.
      ctx.withonly_on(0,
                      [&](AccessDecl& d) {
                        d.rd_wr(x);
                        d.rd_wr(meta);
                      },
                      [x, meta, r](TaskContext& t) {
                        t.charge(2000);
                        auto ms = t.read_write(meta);
                        for (std::size_t i = 0; i < ms.size(); ++i)
                          ms[i] = r * 100.0 + static_cast<double>(i);
                        if (r == 0) {
                          auto xs = t.read_write(x);
                          for (std::size_t i = 0; i < xs.size(); ++i)
                            xs[i] = static_cast<double>(i % 257);
                        }
                      },
                      "pub" + std::to_string(r));
      for (int m = 1; m < kFanMachines; ++m) {
        auto a = acc[static_cast<std::size_t>(m - 1)];
        ctx.withonly_on(m % rt.machine_count(),
                        [&](AccessDecl& d) {
                          d.rd(x);
                          d.rd(meta);
                          d.rd_wr(a);
                        },
                        [x, meta, a, m](TaskContext& t) {
                          t.charge(500);
                          auto xs = t.read(x);
                          auto ms = t.read(meta);
                          double s = 0;
                          for (std::size_t i = 0; i < xs.size();
                               i += static_cast<std::size_t>(m))
                            s += xs[i];
                          for (double v : ms) s += v;
                          t.read_write(a)[0] += s;
                        },
                        "rd" + std::to_string(r) + "_" + std::to_string(m));
      }
    }
  });
  std::vector<double> check;
  for (auto& a : acc) check.push_back(rt.get(a)[0]);
  for (double v : rt.get(meta)) check.push_back(v);
  check.push_back(rt.get(x)[kFanX - 1]);
  return check;
}

// --- scenario 2: write-invalidate ping-pong --------------------------------

constexpr int kPingMachines = 8;
constexpr int kPingRounds = 10;
constexpr std::size_t kPingX = 2048;  // doubles: 16 KB payload

std::vector<double> write_invalidate(Runtime& rt) {
  auto x = rt.alloc<double>(kPingX, "x", 0);
  std::vector<SharedRef<double>> acc;
  for (int m = 0; m < kPingMachines; ++m)
    acc.push_back(rt.alloc<double>(1, "acc" + std::to_string(m),
                                   m % rt.machine_count()));
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < kPingRounds; ++r) {
      const int wm = r % 2;  // the writer ping-pongs between machines 0 and 1
      ctx.withonly_on(wm, [&](AccessDecl& d) { d.rd_wr(x); },
                      [x, r](TaskContext& t) {
                        t.charge(1000);
                        auto xs = t.read_write(x);
                        const std::size_t base =
                            (static_cast<std::size_t>(r) * 37) % xs.size();
                        for (std::size_t i = 0; i < 64; ++i)
                          xs[(base + i) % xs.size()] += r + 1.0;
                      },
                      "wr" + std::to_string(r));
      for (int m = 0; m < kPingMachines; ++m) {
        auto a = acc[static_cast<std::size_t>(m)];
        ctx.withonly_on(m % rt.machine_count(),
                        [&](AccessDecl& d) {
                          d.rd(x);
                          d.rd_wr(a);
                        },
                        [x, a, m](TaskContext& t) {
                          t.charge(300);
                          auto xs = t.read(x);
                          double s = 0;
                          for (std::size_t i = 0; i < xs.size(); i += 31)
                            s += xs[i] * (m + 1);
                          t.read_write(a)[0] += s;
                        },
                        "rd" + std::to_string(r) + "_" + std::to_string(m));
      }
    }
  });
  std::vector<double> check;
  for (auto& a : acc) check.push_back(rt.get(a)[0]);
  check.push_back(rt.get(x)[0]);
  return check;
}

// --- scenario 3: cross-endian pipeline -------------------------------------

constexpr int kEndianMachines = 6;
constexpr int kEndianRounds = 8;
constexpr std::size_t kEndianX = 2048;  // doubles: 2048 scalars to convert

std::vector<double> cross_endian(Runtime& rt) {
  // hetero_workstations alternates little-endian MIPS (even machines) and
  // big-endian SPARC (odd): the producer on 0 feeds consumers on 1, 3, 5,
  // so every copy crosses the byte-order boundary.
  auto x = rt.alloc<double>(kEndianX, "x", 0);
  std::vector<SharedRef<double>> acc;
  const int readers[] = {1, 3, 5};
  for (int m : readers)
    acc.push_back(rt.alloc<double>(1, "acc" + std::to_string(m),
                                   m % rt.machine_count()));
  rt.run([&](TaskContext& ctx) {
    for (int r = 0; r < kEndianRounds; ++r) {
      ctx.withonly_on(0, [&](AccessDecl& d) { d.rd_wr(x); },
                      [x, r](TaskContext& t) {
                        t.charge(1500);
                        auto xs = t.read_write(x);
                        for (std::size_t i = 0; i < xs.size(); i += 8)
                          xs[i] = r * 1000.0 + static_cast<double>(i);
                      },
                      "produce" + std::to_string(r));
      for (std::size_t k = 0; k < 3; ++k) {
        const int m = readers[k];
        auto a = acc[k];
        ctx.withonly_on(m % rt.machine_count(),
                        [&](AccessDecl& d) {
                          d.rd(x);
                          d.rd_wr(a);
                        },
                        [x, a, m](TaskContext& t) {
                          t.charge(400);
                          auto xs = t.read(x);
                          double s = 0;
                          for (std::size_t i = 0; i < xs.size(); i += 16)
                            s += xs[i] + m;
                          t.read_write(a)[0] += s;
                        },
                        "consume" + std::to_string(r) + "_" +
                            std::to_string(m));
      }
    }
  });
  std::vector<double> check;
  for (auto& a : acc) check.push_back(rt.get(a)[0]);
  check.push_back(rt.get(x)[8]);
  return check;
}

// --- reporting -------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_comm_protocol\",\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"config\": \"%s\", "
        "\"finish_time\": %.9f, \"payload_bytes\": %llu, "
        "\"bytes_sent\": %llu, \"messages\": %llu, "
        "\"requests_combined\": %llu, \"replicas_reused\": %llu, "
        "\"invalidations_coalesced\": %llu, \"conversions_cached\": %llu, "
        "\"bytes_avoided\": %llu}%s\n",
        r.scenario.c_str(), r.config.c_str(), r.finish_time,
        static_cast<unsigned long long>(r.payload_bytes),
        static_cast<unsigned long long>(r.bytes_sent),
        static_cast<unsigned long long>(r.messages),
        static_cast<unsigned long long>(r.requests_combined),
        static_cast<unsigned long long>(r.replicas_reused),
        static_cast<unsigned long long>(r.invalidations_coalesced),
        static_cast<unsigned long long>(r.conversions_cached),
        static_cast<unsigned long long>(r.bytes_avoided),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cerr << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_comm_protocol.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strncmp(argv[i], "--json-out=", 11) == 0)
      json_path = argv[i] + 11;
  }

  struct Scenario {
    const char* name;
    ClusterConfig cluster;
    Workload workload;
  };
  const Scenario scenarios[] = {
      {"read_fanout", presets::mica(kFanMachines), read_fanout},
      {"write_invalidate", presets::mica(kPingMachines), write_invalidate},
      {"cross_endian", presets::hetero_workstations(kEndianMachines),
       cross_endian},
  };

  std::cout << "=== communication protocol: legacy (before) vs optimized "
               "(after), virtual time ===\n";
  std::vector<Row> rows;
  TextTable table({"scenario", "config", "virt sec", "payload KB",
                   "sent KB", "msgs", "combined", "reused", "coalesced",
                   "conv cached"});
  for (const Scenario& sc : scenarios) {
    const std::vector<double> expect = serial_reference(sc.workload);
    for (bool optimized : {false, true}) {
      Row r = measure(sc.name, optimized, sc.cluster, sc.workload, expect);
      table.add_row(
          {r.scenario, r.config, format_double(r.finish_time, 6),
           format_double(r.payload_bytes / 1024.0, 1),
           format_double(r.bytes_sent / 1024.0, 1),
           std::to_string(r.messages), std::to_string(r.requests_combined),
           std::to_string(r.replicas_reused),
           std::to_string(r.invalidations_coalesced),
           std::to_string(r.conversions_cached)});
      rows.push_back(std::move(r));
    }
  }
  table.print(std::cout);

  // The wins are virtual-time facts, not measurement noise: assert them.
  bool ok = true;
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const Row& before = rows[i];
    const Row& after = rows[i + 1];
    const double payload_ratio =
        after.payload_bytes == 0
            ? 1e9
            : static_cast<double>(before.payload_bytes) /
                  static_cast<double>(after.payload_bytes);
    const double speedup = before.finish_time / after.finish_time;
    std::cout << before.scenario << ": " << format_double(payload_ratio, 2)
              << "x fewer payload bytes, " << format_double(speedup, 3)
              << "x faster completion\n";
    if (before.scenario == "read_fanout" && payload_ratio < 1.5) {
      std::cerr << "FAIL: read_fanout payload reduction " << payload_ratio
                << "x < 1.5x\n";
      ok = false;
    }
    if (after.finish_time >= before.finish_time) {
      std::cerr << "FAIL: " << before.scenario
                << " optimized protocol is not faster\n";
      ok = false;
    }
  }
  if (!ok) return 1;

  write_json(json_path, rows);
  std::cout << "(all cells verified against the serial reference; rows "
               "recorded in "
            << json_path << ")\n";
  return 0;
}
