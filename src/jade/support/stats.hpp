// Report helpers used by the benchmark harnesses and the runtime's
// self-instrumentation: aligned text tables and ordered counter lists.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace jade {

/// Plain-text table printer: the figure benches print the same rows/series a
/// paper figure plots, aligned for reading in a terminal.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::vector<double>& cells, int precision = 3);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (locale-independent).
std::string format_double(double v, int precision);

/// An ordered list of named integer counters.  The ft/ observability layer
/// uses it to hand benches and tests one uniform "name = value" view of the
/// fault/recovery counters; insertion order is preserved so output is
/// stable.
class CounterSet {
 public:
  void add(std::string name, std::uint64_t value);

  std::size_t size() const { return items_.size(); }
  const std::string& name(std::size_t i) const { return items_[i].first; }
  std::uint64_t value(std::size_t i) const { return items_[i].second; }

  /// Looks a counter up by name (0 if absent — counters default to zero).
  std::uint64_t value(const std::string& name) const;

  /// Renders as a two-column TextTable ("counter", "value").
  void print(std::ostream& os) const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> items_;
};

}  // namespace jade
