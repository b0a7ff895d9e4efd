#include "jade/support/stats.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "jade/support/error.hpp"

namespace jade {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  JADE_ASSERT(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (double c : cells) out.push_back(format_double(c, precision));
  add_row(std::move(out));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i)
    widths[i] = headers_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size())
        os << std::string(widths[i] - row[i].size() + 2, ' ');
    }
    os << '\n';
  };

  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void CounterSet::add(std::string name, std::uint64_t value) {
  items_.emplace_back(std::move(name), value);
}

std::uint64_t CounterSet::value(const std::string& name) const {
  for (const auto& [n, v] : items_)
    if (n == name) return v;
  return 0;
}

void CounterSet::print(std::ostream& os) const {
  TextTable table({"counter", "value"});
  for (const auto& [n, v] : items_)
    table.add_row({n, std::to_string(v)});
  table.print(os);
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace jade
