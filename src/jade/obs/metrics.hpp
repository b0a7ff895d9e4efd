// MetricsRegistry — named counters, gauges, and log-bucketed histograms.
//
// One uniform, insertion-ordered view of everything a run accumulated,
// subsuming the flat RuntimeStats fields: engines publish those as named
// metrics at the end of run() (see Engine::end_run in engine.hpp),
// and additionally feed distribution metrics — task queue-wait, fetch-wait,
// message latency — that a flat counter bag cannot hold.
//
// Naming convention (docs/OBSERVABILITY.md): dotted, lower-case, rooted at
// the owning subsystem, e.g. "engine.tasks_created", "net.message_latency",
// "ft.tasks_requeued".
//
// Metric objects returned by the find-or-create accessors are
// reference-stable for the registry's lifetime, so hot paths look a metric
// up once and keep the reference.  Counters are atomic (ThreadEngine
// workers bump them concurrently); gauges and histograms must be updated
// under the caller's synchronization (every current call site already holds
// the engine lock or is single-threaded).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "jade/support/stats.hpp"

namespace jade::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double delta) { v_ += delta; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

/// Log-bucketed histogram for non-negative samples spanning many orders of
/// magnitude (latencies from microseconds to minutes, sizes from bytes to
/// megabytes).  Bucket i holds samples in [kMin * 2^(i-1), kMin * 2^i);
/// samples below kMin land in bucket 0, above the top in the last bucket.
/// Quantiles are estimated by linear interpolation within the bucket.
class Histogram {
 public:
  static constexpr double kMin = 1e-9;
  static constexpr int kBuckets = 96;  ///< covers kMin .. kMin * 2^96

  void observe(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Estimated q-quantile (q in [0,1]); exact at the recorded min/max.
  double quantile(double q) const;

  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Lower bound of bucket i's range.
  static double bucket_floor(int i);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsScope;

class MetricsRegistry {
 public:
  /// Find-or-create, insertion-ordered.  A name identifies exactly one
  /// metric kind; asking for the same name as a different kind throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// A namespaced view: scope("tenant.7.").counter("tasks") names
  /// "tenant.7.tasks".  See MetricsScope below.
  MetricsScope scope(std::string prefix);

  bool has(std::string_view name) const;
  std::size_t size() const { return order_.size(); }

  /// Counter values (and gauges, rounded down) as an ordered CounterSet —
  /// the benches' uniform "name = value" view.  `prefix` filters (e.g.
  /// "ft." for the fault/recovery counters); empty takes everything.
  CounterSet counters(std::string_view prefix = {}) const;

  /// Deterministic text summary: one table of counters/gauges, one of
  /// histogram statistics (count/mean/p50/p95/max).
  void print_summary(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::size_t index;  ///< into the kind's storage deque
  };

  Entry& find_or_create(std::string_view name, Kind kind);

  // Deques: reference stability on growth.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> order_;
  std::unordered_map<std::string, std::size_t> by_name_;  ///< into order_
};

/// A prefix-qualified view of a registry, for per-namespace metric families
/// ("tenant.<id>.*", "session.<id>.*") without hot-path string assembly: the
/// prefix is composed once and each lookup appends the leaf name into a
/// buffer owned by the scope, then truncates back.  Returned references have
/// registry lifetime — callers look up once and keep the reference, exactly
/// as with the registry itself.  Not thread-safe (one scratch buffer); scopes
/// are cheap, so give each thread or owner its own.
class MetricsScope {
 public:
  MetricsScope(MetricsRegistry& registry, std::string prefix)
      : registry_(&registry),
        buf_(std::move(prefix)),
        prefix_len_(buf_.size()) {}

  Counter& counter(std::string_view leaf) {
    return registry_->counter(qualify(leaf));
  }
  Gauge& gauge(std::string_view leaf) {
    return registry_->gauge(qualify(leaf));
  }
  Histogram& histogram(std::string_view leaf) {
    return registry_->histogram(qualify(leaf));
  }

  std::string_view prefix() const {
    return std::string_view(buf_).substr(0, prefix_len_);
  }
  MetricsRegistry& registry() { return *registry_; }

 private:
  std::string_view qualify(std::string_view leaf) {
    buf_.resize(prefix_len_);
    buf_.append(leaf);
    return buf_;
  }

  MetricsRegistry* registry_;
  std::string buf_;  ///< prefix + scratch tail for the current lookup
  std::size_t prefix_len_;
};

inline MetricsScope MetricsRegistry::scope(std::string prefix) {
  return MetricsScope(*this, std::move(prefix));
}

}  // namespace jade::obs
