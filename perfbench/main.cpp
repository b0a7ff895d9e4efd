// jade_perfbench — one seeded workload, measured for a fixed window.
//
//   jade_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones (engine tracing off); with --trace 1 the
// engine records a trace and the metrics are the per-layer ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 21;
/// Untimed ops ending each set-up (caches, lazily started workers).
constexpr int kWarmupOps = 1;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::cerr << "usage: jade_perfbench --workload <thread_cholesky|sim_make|"
               "cluster_relax|server_churn> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val) != 0;
    else return usage();
  }
  const std::map<std::string,
                 std::function<std::unique_ptr<Workload>(std::uint64_t, bool)>>
      factories = {{"thread_cholesky", make_thread_cholesky},
                   {"sim_make", make_sim_make},
                   {"cluster_relax", make_cluster_relax},
                   {"server_churn", make_server_churn}};
  const auto factory = factories.find(workload);
  if (factory == factories.end() || !(seconds > 0)) return usage();

  try {
    // Inputs and serial references are built once, outside set-up time;
    // each set-up then starts from nothing: the previous engine (worker
    // threads, worker processes, server) has ended before the next starts.
    const std::unique_ptr<Workload> w = factory->second(seed, trace);
    const Clock::time_point p0 = Clock::now();
    w->prepare();
    const double inputs_s = seconds_between(p0, Clock::now());
    std::vector<double> setup_s, runtime_s, warmup_s;
    std::uint64_t attempted = 0, failed = 0;
    for (int k = 0; k < kSetups; ++k) {
      w->stop();
      const Clock::time_point t0 = Clock::now();
      w->start();
      const Clock::time_point t1 = Clock::now();
      for (int op = 0; op < kWarmupOps; ++op, ++attempted)
        if (!w->warm_up()) ++failed;
      const Clock::time_point t2 = Clock::now();
      setup_s.push_back(seconds_between(t0, t2));
      runtime_s.push_back(seconds_between(t0, t1));
      warmup_s.push_back(seconds_between(t1, t2));
    }
    const RunResult r = w->measure(seconds);
    w->stop();
    attempted += r.attempted;
    failed += r.failed;

    const std::vector<double>& latencies_s = r.latencies_s;
    if (latencies_s.empty()) {
      std::cerr << "no op completed in the window\n";
      return 1;
    }
    const double ops = static_cast<double>(latencies_s.size());
    const Layers& l = r.layers;
    std::cerr << workload << " seed=" << seed << ": " << latencies_s.size()
              << " ops in " << r.wall_s << " s, " << failed
              << " of " << attempted << " failed\n";
    std::vector<Metric> metrics;
    if (!trace) {
      metrics = {
          {"latency_p50_ms", 1e3 * median(latencies_s), "ms"},
          {"latency_p90_ms", 1e3 * percentile(latencies_s, 0.90), "ms"},
          {"tasks_per_s", l.tasks / r.wall_s, "1/s"},
          {"setup_s", median(setup_s), "s"},
      };
    } else {
      metrics = {
          {"setup_inputs_s", inputs_s, "s"},
          {"setup_runtime_s", median(runtime_s), "s"},
          {"setup_warmup_s", median(warmup_s), "s"},
          {"put_ms", 1e3 * l.put_s / ops, "ms"},
          {"spawn_ms", 1e3 * l.spawn_s / ops, "ms"},
          {"drain_ms", 1e3 * l.drain_s / ops, "ms"},
          {"get_ms", 1e3 * l.get_s / ops, "ms"},
          {"traced_latency_p50_ms", 1e3 * median(latencies_s), "ms"},
          {"tasks_per_op", l.tasks / ops, "count"},
          {"tasks_stolen_per_op", l.tasks_stolen / ops, "count"},
          {"worker_parks_per_op", l.worker_parks / ops, "count"},
          {"messages_per_op", l.messages / ops, "count"},
          {"payload_kib_per_op", l.payload_bytes / 1024.0 / ops, "KiB"},
          {"object_copies_per_op", l.object_copies / ops, "count"},
          {"trace_events_per_op", l.trace_events / ops, "count"},
      };
    }
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
