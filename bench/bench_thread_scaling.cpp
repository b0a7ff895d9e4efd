// ThreadEngine scaling on real hardware: dispatch-bound microtasks and the
// paper's sparse Cholesky, swept across worker counts.
//
// The paper's premise (Sections 3.3, 5, 8) is that dynamic concurrency
// detection is cheap enough for coarse-grain tasks to amortize.  The
// microtask fan-out here is the adversarial opposite — thousands of
// near-empty independent tasks — so it measures the engine's dispatch path
// itself: task creation, ready-queue handoff, worker wakeup, completion.
// Cholesky (per-column tasks, Figure 6) is the paper-shaped workload with a
// real dependence structure.
//
// Every cell is verified against the serial reference before it is timed
// (a wrong answer exits non-zero), and the measured rows are written as a
// bench_format artifact (--json-out, default BENCH_thread_scaling.json) so
// CI can track the engine's scaling trajectory over time.  The rows are
// wall-clock figures, so each one names the host's core count, the build
// type and the compiler that produced it.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_format.hpp"
#include "jade/apps/cholesky.hpp"
#include "jade/core/runtime.hpp"
#include "jade/support/stats.hpp"

namespace {

using namespace jade;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `tasks` independent near-empty tasks spread over `objects` shared
/// objects: pure dispatch overhead.  Returns best-of-`reps` wall seconds.
double run_microtask(int workers, int tasks, int objects, int reps) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    RuntimeConfig cfg;
    cfg.engine = EngineKind::kThread;
    cfg.threads = workers;
    Runtime rt(std::move(cfg));
    std::vector<SharedRef<std::int64_t>> objs;
    for (int i = 0; i < objects; ++i)
      objs.push_back(rt.alloc<std::int64_t>(1));
    const double t0 = now_seconds();
    rt.run([&](TaskContext& ctx) {
      for (int i = 0; i < tasks; ++i) {
        auto o = objs[static_cast<std::size_t>(i % objects)];
        ctx.withonly([&](AccessDecl& d) { d.rd_wr(o); },
                     [o](TaskContext& t) { t.read_write(o)[0] += 1; });
      }
    });
    best = std::min(best, now_seconds() - t0);
    std::int64_t total = 0;
    for (int i = 0; i < objects; ++i) total += rt.get(objs[i])[0];
    if (total != tasks) {
      std::cerr << "microtask verification failed: " << total
                << " != " << tasks << "\n";
      std::exit(1);
    }
  }
  return best;
}

/// Per-column Cholesky (Figure 6) on the thread engine; bit-checked against
/// the serial factorization.  Returns (best wall seconds, task count).
std::pair<double, std::uint64_t> run_cholesky(
    const apps::SparseMatrix& a, const apps::SparseMatrix& expect,
    int workers, int reps) {
  double best = 1e100;
  std::uint64_t tasks = 0;
  for (int rep = 0; rep < reps; ++rep) {
    RuntimeConfig cfg;
    cfg.engine = EngineKind::kThread;
    cfg.threads = workers;
    Runtime rt(std::move(cfg));
    auto jm = apps::upload_matrix(rt, a);
    const double t0 = now_seconds();
    rt.run([&](TaskContext& ctx) { apps::factor_jade(ctx, jm); });
    best = std::min(best, now_seconds() - t0);
    tasks = rt.stats().tasks_created;
    if (apps::download_matrix(rt, jm).cols != expect.cols) {
      std::cerr << "cholesky verification failed (workers=" << workers
                << ")\n";
      std::exit(1);
    }
  }
  return {best, tasks};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::json_out_path(argc, argv, "BENCH_thread_scaling.json");
  int tasks = 8192;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tasks") == 0 && i + 1 < argc)
      tasks = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
  }

  const std::vector<int> worker_sweep = {1, 2, 4, 8};
  bench::JsonReport report("bench_thread_scaling");
  const auto add_row = [&](const char* workload, int workers,
                           std::uint64_t ntasks, double secs) {
    report.add_row()
        .str("workload", workload)
        .count("workers", workers)
        .count("tasks", ntasks)
        .num("seconds", secs, 6)
        .num("tasks_per_s", static_cast<double>(ntasks) / secs, 1)
        .count("reps", reps)
        .stamp_host();
  };

  std::cout << "=== ThreadEngine scaling (wall clock, best of " << reps
            << ") ===\n";

  {
    std::cout << "--- microtask fan-out: " << tasks
              << " near-empty independent tasks over 16 objects ---\n";
    TextTable table({"workers", "seconds", "tasks/sec"});
    for (int w : worker_sweep) {
      const double secs = run_microtask(w, tasks, 16, reps);
      add_row("microtask_fanout", w, static_cast<std::uint64_t>(tasks), secs);
      table.add_row({std::to_string(w), format_double(secs, 4),
                     format_double(tasks / secs, 0)});
    }
    table.print(std::cout);
  }

  {
    const int n = 192;
    const auto a = apps::make_spd(n, 5.0 / n, 7);
    auto expect = a;
    apps::factor_serial(expect);
    std::cout << "--- sparse Cholesky, per-column tasks: n=" << n
              << ", nnz=" << a.nnz() << " ---\n";
    TextTable table({"workers", "seconds", "tasks/sec"});
    for (int w : worker_sweep) {
      auto [secs, ntasks] = run_cholesky(a, expect, w, reps);
      add_row("cholesky_per_column", w, ntasks, secs);
      table.add_row({std::to_string(w), format_double(secs, 4),
                     format_double(static_cast<double>(ntasks) / secs, 0)});
    }
    table.print(std::cout);
  }

  report.write(json_path);
  std::cout << "(all cells verified against the serial reference; rows "
               "recorded in "
            << json_path << ")\n";
  return 0;
}
