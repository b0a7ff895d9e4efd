// Unit tests for the observability subsystem (src/jade/obs): the
// ring-buffered trace recorder, the emission facade, the metrics registry,
// the Chrome trace exporter, and the engine integration contracts
// (zero-cost-when-disabled, real worker ids on the thread engine).
#include <gtest/gtest.h>

#include <sstream>

#include "jade/core/runtime.hpp"
#include "jade/obs/chrome_trace.hpp"
#include "jade/obs/metrics.hpp"
#include "jade/obs/sink.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

using obs::EventKind;
using obs::Subsystem;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::Tracer;

// ---------------------------------------------------------------- recorder

TEST(TraceRecorder, AssignsMonotonicSeqInRecordOrder) {
  TraceRecorder rec;
  Tracer t;
  t.attach(&rec, nullptr);
  for (int i = 0; i < 5; ++i)
    t.instant(Subsystem::kEngine, "x", static_cast<std::uint64_t>(i), 0);
  const auto evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 5u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, i);
    EXPECT_EQ(evs[i].id, i);
  }
}

TEST(TraceRecorder, RingDropsOldestAndCountsDrops) {
  TraceRecorder rec(4);
  Tracer t;
  t.attach(&rec, nullptr);
  for (int i = 0; i < 10; ++i)
    t.instant(Subsystem::kEngine, "x", static_cast<std::uint64_t>(i), 0);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Newest four survive, oldest first.
  EXPECT_EQ(evs.front().id, 6u);
  EXPECT_EQ(evs.back().id, 9u);
}

TEST(TraceRecorder, ClearEmptiesRingButKeepsLifetimeTotals) {
  TraceRecorder rec(8);
  Tracer t;
  t.attach(&rec, nullptr);
  t.instant(Subsystem::kEngine, "x", 1, 0);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 1u);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, DisabledTracerEmitsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  // No sink attached: every emit must be a no-op, not a crash.
  t.span_begin(Subsystem::kEngine, "task", 1, 0);
  t.span_end(Subsystem::kEngine, "task", 1, 0);
  t.instant(Subsystem::kNet, "net.drop", 1, 0);
  t.counter(Subsystem::kEngine, "c", 0, 1.0);
}

TEST(Tracer, ClockStampsEventsAndAtVariantsOverrideIt) {
  TraceRecorder rec;
  Tracer t;
  SimTime now = 1.5;
  t.attach(&rec, [&now] { return now; });
  t.span_begin(Subsystem::kEngine, "task", 7, 2, "blk");
  now = 2.25;
  t.span_end(Subsystem::kEngine, "task", 7, 2, 42.0);
  t.instant_at(9.75, Subsystem::kStore, "store.move", 3, 1, 128.0);
  const auto evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, EventKind::kSpanBegin);
  EXPECT_DOUBLE_EQ(evs[0].ts, 1.5);
  EXPECT_EQ(evs[0].detail, "blk");
  EXPECT_EQ(evs[0].machine, 2);
  EXPECT_EQ(evs[1].kind, EventKind::kSpanEnd);
  EXPECT_DOUBLE_EQ(evs[1].ts, 2.25);
  EXPECT_DOUBLE_EQ(evs[1].value, 42.0);
  EXPECT_EQ(evs[2].kind, EventKind::kInstant);
  EXPECT_DOUBLE_EQ(evs[2].ts, 9.75);  // explicit timestamp wins
  EXPECT_EQ(evs[2].cat, Subsystem::kStore);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CountersAreFindOrCreateAndStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("engine.tasks_created");
  a.add(3);
  reg.counter("engine.tasks_created").add(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_TRUE(reg.has("engine.tasks_created"));
  EXPECT_FALSE(reg.has("engine.nope"));
}

TEST(Metrics, NameIdentifiesExactlyOneKind) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), InternalError);
  EXPECT_THROW(reg.histogram("x"), InternalError);
}

TEST(Metrics, CounterSetIsInsertionOrderedAndPrefixFiltered) {
  obs::MetricsRegistry reg;
  reg.counter("net.messages").add(7);
  reg.counter("engine.tasks_created").add(2);
  reg.gauge("engine.duration").set(3.9);
  reg.counter("net.bytes_sent").add(100);
  const CounterSet all = reg.counters();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.name(0), "net.messages");
  EXPECT_EQ(all.name(1), "engine.tasks_created");
  EXPECT_EQ(all.name(2), "engine.duration");
  EXPECT_EQ(all.value(2), 3u);  // gauges rounded down
  const CounterSet net = reg.counters("net.");
  ASSERT_EQ(net.size(), 2u);
  EXPECT_EQ(net.value("net.messages"), 7u);
  EXPECT_EQ(net.value("net.bytes_sent"), 100u);
}

TEST(Metrics, HistogramStatisticsAndQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Log-bucketed: the median is an estimate; demand the right ballpark.
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 90.0);
}

TEST(Metrics, SummaryIsDeterministicText) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.histogram("h").observe(2.0);
  std::ostringstream s1, s2;
  reg.print_summary(s1);
  reg.print_summary(s2);
  EXPECT_EQ(s1.str(), s2.str());
  EXPECT_NE(s1.str().find('a'), std::string::npos);
}

// ---------------------------------------------------------- chrome export

TEST(ChromeTrace, EscapesJsonStrings) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("l1\nl2\t"), "l1\\nl2\\t");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ChromeTrace, ExportsSpansInstantsCountersWithSchema) {
  TraceRecorder rec;
  Tracer t;
  SimTime now = 0.0;
  t.attach(&rec, [&now] { return now; });
  t.span_begin(Subsystem::kEngine, "task", 1, 0, "blk \"q\"");
  now = 0.5;
  t.span_end(Subsystem::kEngine, "task", 1, 0, 5e5);
  t.instant(Subsystem::kNet, "net.drop", 2, 1, 64.0);
  t.counter(Subsystem::kEngine, "queue_depth", 0, 3.0);

  std::ostringstream os;
  const auto evs = rec.snapshot();
  obs::write_chrome_trace(os, evs);
  const std::string out = os.str();

  // Object form with a traceEvents array.
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"net\""), std::string::npos);
  // Detail strings go through json_escape.
  EXPECT_NE(out.find("blk \\\"q\\\""), std::string::npos);
  EXPECT_EQ(out.find("blk \"q\""), std::string::npos);
  // ts is microseconds: the span end at 0.5 virtual seconds.
  EXPECT_NE(out.find("\"ts\":500000"), std::string::npos);
  // Balanced braces/brackets — a cheap well-formedness check.
  long depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(ChromeTrace, TextSummaryCountsSpansOnceByEnd) {
  TraceRecorder rec;
  Tracer t;
  t.attach(&rec, nullptr);
  t.span_begin(Subsystem::kEngine, "task", 1, 0);
  t.span_end(Subsystem::kEngine, "task", 1, 0);
  t.span_begin(Subsystem::kEngine, "task", 2, 0);  // unclosed
  t.instant(Subsystem::kNet, "net.drop", 1, 0);
  t.instant(Subsystem::kNet, "net.drop", 2, 0);
  const auto evs = rec.snapshot();
  const std::string summary = obs::trace_text_summary(evs);
  EXPECT_NE(summary.find("task"), std::string::npos);
  EXPECT_NE(summary.find("net.drop"), std::string::npos);
  // Deterministic across calls.
  EXPECT_EQ(summary, obs::trace_text_summary(evs));
}

// ----------------------------------------------------- engine integration

TEST(RuntimeObs, TracingOffByDefaultAndExportRefused) {
  Runtime rt;
  rt.run([](TaskContext& ctx) {
    ctx.withonly([](AccessDecl&) {}, [](TaskContext&) {});
  });
  EXPECT_EQ(rt.trace(), nullptr);
  EXPECT_TRUE(rt.trace_events().empty());
  std::ostringstream os;
  EXPECT_THROW(rt.write_chrome_trace(os), ConfigError);
}

TEST(RuntimeObs, SerialEngineRecordsTaskLifecycle) {
  RuntimeConfig cfg;
  cfg.obs.trace = true;
  Runtime rt(std::move(cfg));
  auto v = rt.alloc<double>(4);
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 3; ++i)
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                   [](TaskContext& t) { t.charge(100); });
  });
  ASSERT_NE(rt.trace(), nullptr);
  const auto evs = rt.trace_events();
  int created = 0, begun = 0, ended = 0;
  for (const auto& e : evs) {
    if (std::string_view(e.name) == "task.created") ++created;
    if (std::string_view(e.name) == "task" &&
        e.kind == EventKind::kSpanBegin)
      ++begun;
    if (std::string_view(e.name) == "task" && e.kind == EventKind::kSpanEnd)
      ++ended;
  }
  EXPECT_EQ(created, 4);  // root + 3
  EXPECT_EQ(begun, 4);
  EXPECT_EQ(ended, 4);
  // RuntimeStats published into the registry under canonical names.
  EXPECT_EQ(rt.metrics().counters().value("engine.tasks_created"),
            rt.stats().tasks_created);
}

TEST(RuntimeObs, ThreadEngineReportsRealWorkerIds) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 4;
  cfg.obs.trace = true;
  Runtime rt(std::move(cfg));
  std::vector<SharedRef<double>> objs;
  for (int i = 0; i < 16; ++i) objs.push_back(rt.alloc<double>(8));
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 64; ++i) {
      auto o = objs[static_cast<std::size_t>(i) % objs.size()];
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(o); },
                   [o](TaskContext& t) { t.read_write(o)[0] += 1.0; });
    }
  });
  int task_spans = 0;
  for (const auto& e : rt.trace_events()) {
    if (std::string_view(e.name) != "task" ||
        e.kind != EventKind::kSpanEnd)
      continue;
    ++task_spans;
    EXPECT_GE(e.machine, 0);
    EXPECT_LT(e.machine, 4);
  }
  EXPECT_EQ(task_spans, 64);  // the root body runs inline in run()
}

TEST(RuntimeObs, ThreadEngineSingleWorkerPinsEverythingToZero) {
  RuntimeConfig cfg;
  cfg.engine = EngineKind::kThread;
  cfg.threads = 1;
  cfg.obs.trace = true;
  Runtime rt(std::move(cfg));
  auto v = rt.alloc<double>(8);
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 8; ++i)
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); },
                   [v](TaskContext& t) { t.read_write(v)[0] += 1.0; });
  });
  for (const auto& e : rt.trace_events())
    if (std::string_view(e.name) == "task") EXPECT_EQ(e.machine, 0);
}

TEST(RuntimeObs, TraceCapacityIsConfigurable) {
  RuntimeConfig cfg;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 8;
  Runtime rt(std::move(cfg));
  auto v = rt.alloc<double>(4);
  rt.run([&](TaskContext& ctx) {
    for (int i = 0; i < 32; ++i)
      ctx.withonly([&](AccessDecl& d) { d.rd_wr(v); }, [](TaskContext&) {});
  });
  ASSERT_NE(rt.trace(), nullptr);
  EXPECT_EQ(rt.trace()->capacity(), 8u);
  EXPECT_LE(rt.trace_events().size(), 8u);
  EXPECT_GT(rt.trace()->dropped(), 0u);
}

}  // namespace
}  // namespace jade
