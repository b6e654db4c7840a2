#include "report/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace gridsub::report {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(const std::string& value) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  if (rows_.back().size() >= headers_.size()) {
    throw std::logic_error("Table::cell: row already full");
  }
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(double value, int decimals) {
  char buf[64];
  if (std::isfinite(value)) {
    // gridsub-lint: allow(printf-float) human table cell, not machine output
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  } else {
    std::snprintf(buf, sizeof(buf), "inf");
  }
  return cell(std::string(buf));
}

Table& Table::cell(long long value) {
  return cell(std::to_string(value));
}

Table& Table::percent(double fraction, int decimals) {
  char buf[64];
  if (std::isfinite(fraction)) {
    // gridsub-lint: allow(printf-float) human table cell, not machine output
    std::snprintf(buf, sizeof(buf), "%+.*f%%", decimals, 100.0 * fraction);
  } else {
    std::snprintf(buf, sizeof(buf), "n/a");
  }
  return cell(std::string(buf));
}

namespace {
std::vector<std::size_t> column_widths(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}
}  // namespace

void Table::print(std::ostream& os) const {
  const auto widths = column_widths(headers_, rows_);
  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string value = c < cells.size() ? cells[c] : "";
      os << "  ";
      os.width(static_cast<std::streamsize>(widths[c]));
      os << value;
    }
    os << "\n";
  };
  os << std::right;
  print_row(headers_);
  std::size_t total = 2 * headers_.size();
  for (const auto w : widths) total += w;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string seconds(double value) {
  if (!std::isfinite(value)) return "inf";
  char buf[64];
  // gridsub-lint: allow(printf-float) whole-second console label
  std::snprintf(buf, sizeof(buf), "%.0fs", value);
  return buf;
}

}  // namespace gridsub::report
