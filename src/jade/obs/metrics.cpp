#include "jade/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "jade/support/error.hpp"

namespace jade::obs {

namespace {
int bucket_index(double x) {
  if (x < Histogram::kMin) return 0;
  const int i =
      static_cast<int>(std::ceil(std::log2(x / Histogram::kMin)));
  return std::clamp(i, 0, Histogram::kBuckets - 1);
}
}  // namespace

void Histogram::observe(double x) {
  JADE_ASSERT_MSG(x >= 0, "Histogram samples must be non-negative");
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  ++buckets_[static_cast<std::size_t>(bucket_index(x))];
}

double Histogram::bucket_floor(int i) {
  return i <= 0 ? 0.0 : kMin * std::exp2(i - 1);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= target) {
      const double lo = std::max(bucket_floor(i), min_);
      const double hi = std::min(kMin * std::exp2(i), max_);
      const double frac =
          n ? (target - static_cast<double>(seen)) / static_cast<double>(n)
            : 0.0;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  return max_;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        Kind kind) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    Entry& e = order_[it->second];
    JADE_ASSERT_MSG(e.kind == kind,
                    "metric re-registered as a different kind");
    return e;
  }
  Entry e;
  e.name = std::string(name);
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      e.index = counters_.size();
      counters_.emplace_back();
      break;
    case Kind::kGauge:
      e.index = gauges_.size();
      gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      e.index = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  by_name_.emplace(e.name, order_.size());
  order_.push_back(std::move(e));
  return order_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return counters_[find_or_create(name, Kind::kCounter).index];
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return gauges_[find_or_create(name, Kind::kGauge).index];
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histograms_[find_or_create(name, Kind::kHistogram).index];
}

bool MetricsRegistry::has(std::string_view name) const {
  return by_name_.contains(std::string(name));
}

CounterSet MetricsRegistry::counters(std::string_view prefix) const {
  CounterSet out;
  for (const Entry& e : order_) {
    if (!prefix.empty() &&
        std::string_view(e.name).substr(0, prefix.size()) != prefix)
      continue;
    if (e.kind == Kind::kCounter)
      out.add(e.name, counters_[e.index].value());
    else if (e.kind == Kind::kGauge)
      out.add(e.name, static_cast<std::uint64_t>(gauges_[e.index].value()));
  }
  return out;
}

void MetricsRegistry::print_summary(std::ostream& os) const {
  TextTable scalars({"metric", "value"});
  bool have_scalar = false;
  for (const Entry& e : order_) {
    if (e.kind == Kind::kCounter) {
      scalars.add_row({e.name, std::to_string(counters_[e.index].value())});
      have_scalar = true;
    } else if (e.kind == Kind::kGauge) {
      scalars.add_row({e.name, format_double(gauges_[e.index].value(), 6)});
      have_scalar = true;
    }
  }
  if (have_scalar) scalars.print(os);

  TextTable dists({"histogram", "count", "mean", "p50", "p95", "max"});
  bool have_dist = false;
  for (const Entry& e : order_) {
    if (e.kind != Kind::kHistogram) continue;
    const Histogram& h = histograms_[e.index];
    dists.add_row({e.name, std::to_string(h.count()),
                   format_double(h.mean(), 6), format_double(h.quantile(0.5), 6),
                   format_double(h.quantile(0.95), 6),
                   format_double(h.max(), 6)});
    have_dist = true;
  }
  if (have_dist) dists.print(os);
}

}  // namespace jade::obs
