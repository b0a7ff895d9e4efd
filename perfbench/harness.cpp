#include "harness.hpp"

#include <iostream>

#include "jade/obs/sink.hpp"

namespace perfbench {

void Layers::add(const Layers& o) {
  put_s += o.put_s;
  spawn_s += o.spawn_s;
  drain_s += o.drain_s;
  get_s += o.get_s;
  tasks += o.tasks;
  tasks_stolen += o.tasks_stolen;
  worker_parks += o.worker_parks;
  messages += o.messages;
  payload_bytes += o.payload_bytes;
  object_copies += o.object_copies;
  trace_events += o.trace_events;
}

void Layers::add_engine_stats(const jade::RuntimeStats& s) {
  tasks += static_cast<double>(s.tasks_created);
  tasks_stolen += static_cast<double>(s.tasks_stolen);
  worker_parks += static_cast<double>(s.worker_parks);
  messages += static_cast<double>(s.messages);
  payload_bytes += static_cast<double>(s.payload_bytes);
  object_copies += static_cast<double>(s.object_copies);
}

std::uint64_t trace_events_since(const jade::Runtime& rt, std::uint64_t& mark) {
  if (rt.trace() == nullptr) return 0;
  const std::uint64_t now = rt.trace()->recorded();
  const std::uint64_t delta = now - mark;
  mark = now;
  return delta;
}

void report_op_error(const std::exception& e) {
  std::cerr << "op failed: " << e.what() << "\n";
}

void SequentialWorkload::start() {
  next_op_ = 0;
  trace_mark_ = 0;
  rt_ = std::make_unique<jade::Runtime>(runtime_config());
  upload();
}

Op SequentialWorkload::finish_op(const OpTimer& t, bool ok) {
  Op op;
  t.fill(op);
  op.ok = ok;
  op.layers.add_engine_stats(rt_->stats());
  op.layers.trace_events =
      static_cast<double>(trace_events_since(*rt_, trace_mark_));
  return op;
}

Op SequentialWorkload::attempt() {
  try {
    return run_op(next_op_++);
  } catch (const std::exception& e) {
    report_op_error(e);
    return Op{};
  }
}

RunResult SequentialWorkload::measure(double seconds) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < seconds) {
    ++r.attempted;
    const Op op = attempt();
    if (!op.ok) {
      ++r.failed;
      continue;
    }
    r.latencies_s.push_back(op.latency_s);
    r.layers.add(op.layers);
  }
  r.wall_s = seconds_between(t0, Clock::now());
  return r;
}

}  // namespace perfbench
