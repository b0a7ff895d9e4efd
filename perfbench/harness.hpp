// Measurement harness shared by the perfbench workloads.
//
// A workload is built from a seed and prepares its inputs and serial
// reference outputs once.  It is then set up (engine, initial upload, one
// untimed op) several times over, and measured: it
// runs whole Jade programs ("ops") back to back for a fixed wall-clock
// window, checks every op's outputs against the serial reference, and
// records per-op latency plus the per-layer spans and counters below.
//
// Spans are taken in this directory, around the calls into each layer:
//   put    host writes of an op's inputs (Runtime/Session put -> store);
//          for server sessions also open_session admission and allocation
//   spawn  time inside the root body: declarations, serializer, governor
//   drain  the rest of run()/wait(): dispatch, data movement, task bodies
//   get    host reads of the outputs (plus session close on the server)
// put + spawn + drain + get is the op's latency (on server_churn, latency
// runs from submit and is spawn + drain).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "jade/core/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Per-layer time and work, summed over the measured ops.
struct Layers {
  double put_s = 0;
  double spawn_s = 0;
  double drain_s = 0;
  double get_s = 0;
  double tasks = 0;
  double tasks_stolen = 0;
  double worker_parks = 0;
  double messages = 0;
  double payload_bytes = 0;
  double object_copies = 0;
  double trace_events = 0;

  void add(const Layers& o);
  /// Engine counters of the last run() (RuntimeStats reset per run).
  void add_engine_stats(const jade::RuntimeStats& s);
};

struct RunResult {
  std::vector<double> latencies_s;  ///< one per op that passed its check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< ops that threw or produced wrong outputs
  double wall_s = 0;         ///< length of the measured window
  Layers layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the seeded inputs and their serial reference outputs.  Runs
  /// once per process, before and outside the timed set-ups.
  virtual void prepare() = 0;
  /// Starts a fresh engine (or server) and allocates and uploads the
  /// shared objects.  stop() must have ended the previous one.
  virtual void start() = 0;
  /// Ends the engine: its worker threads and processes exit.
  virtual void stop() = 0;
  /// Runs one untimed op; false when it failed.
  virtual bool warm_up() = 0;
  /// Runs ops until `seconds` have elapsed.
  virtual RunResult measure(double seconds) = 0;
};

/// One op: its outcome, latency and per-layer share.
struct Op {
  bool ok = false;
  double latency_s = 0;
  Layers layers;
};

/// Records the phase boundaries of one op.  `root_begin` and `root_end`
/// are stamped from inside the root body, which may run on another thread;
/// run() / Session::wait() returning orders those stores before the reads.
struct OpTimer {
  Clock::time_point start, put_done, root_begin, root_end, run_done, get_done;

  void fill(Op& op) const {
    op.layers.put_s = seconds_between(start, put_done);
    op.layers.spawn_s = seconds_between(root_begin, root_end);
    op.layers.drain_s =
        seconds_between(put_done, run_done) - op.layers.spawn_s;
    op.layers.get_s = seconds_between(run_done, get_done);
    op.latency_s = seconds_between(start, get_done);
  }
};

/// A workload that runs its programs one after another on one Runtime.
class SequentialWorkload : public Workload {
 public:
  void start() final;
  void stop() final { rt_.reset(); }
  bool warm_up() final { return attempt().ok; }
  RunResult measure(double seconds) final;

 protected:
  /// The engine configuration start() builds rt_ from.
  virtual jade::RuntimeConfig runtime_config() const = 0;
  /// Allocates the shared objects on the fresh rt_ and uploads them.
  virtual void upload() = 0;
  /// Runs op `i`: uploads its inputs, runs the program, reads and checks
  /// the outputs.
  virtual Op run_op(std::size_t i) = 0;

  /// The op record for a finished run on rt_: phase times, outcome, and
  /// the engine counters and trace events of that run.
  Op finish_op(const OpTimer& t, bool ok);

  std::unique_ptr<jade::Runtime> rt_;

 private:
  Op attempt();
  std::size_t next_op_ = 0;
  std::uint64_t trace_mark_ = 0;
};

/// Engine tracing for --trace 1.  The ring stays small: the per-layer
/// metrics read only the recorded-event count, not the events.
inline jade::ObsConfig obs_config(bool trace) {
  jade::ObsConfig obs;
  obs.trace = trace;
  obs.trace_capacity = 1 << 14;
  return obs;
}

/// Trace events recorded since the previous call (0 when tracing is off).
std::uint64_t trace_events_since(const jade::Runtime& rt, std::uint64_t& mark);

/// Logs an op that threw (it is counted as failed).
void report_op_error(const std::exception& e);

std::unique_ptr<Workload> make_thread_cholesky(std::uint64_t seed, bool trace);
std::unique_ptr<Workload> make_sim_make(std::uint64_t seed, bool trace);
std::unique_ptr<Workload> make_cluster_relax(std::uint64_t seed, bool trace);
std::unique_ptr<Workload> make_server_churn(std::uint64_t seed, bool trace);

}  // namespace perfbench
