#pragma once

// Fixed-width console tables for the experiment harness.
//
// Every bench binary prints the same rows the paper's tables report;
// this builder handles alignment and numeric formatting.

#include <iosfwd>
#include <string>
#include <vector>

namespace gridsub::report {

/// Column-aligned text table.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();

  /// Appends a string cell to the current row.
  Table& cell(const std::string& value);
  /// Appends a formatted numeric cell ("%.*f" with `decimals`).
  Table& cell(double value, int decimals = 1);
  /// Appends an integer cell.
  Table& cell(long long value);
  /// Appends a percentage cell ("%+.1f%%" by default).
  Table& percent(double fraction, int decimals = 1);

  /// Renders with space padding and a header separator.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds with 0 decimals and an "s" suffix ("471s"), matching the
/// paper's table style.
std::string seconds(double value);

}  // namespace gridsub::report
