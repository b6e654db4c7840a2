#include "report/series.hpp"

#include <ostream>
#include <stdexcept>

namespace gridsub::report {

Figure::Figure(std::string title, std::string x_label, std::string y_label)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {}

void Figure::add(Series series) {
  if (series.x.size() != series.y.size()) {
    throw std::invalid_argument("Figure::add: x/y size mismatch");
  }
  series_.push_back(std::move(series));
}

void Figure::add(const std::string& label, std::vector<double> x,
                 std::vector<double> y) {
  add(Series{label, std::move(x), std::move(y)});
}

void Figure::print(std::ostream& os, int max_rows_per_series) const {
  os << "# " << title_ << "\n";
  os << "# x: " << x_label_ << ", y: " << y_label_ << "\n";
  for (const auto& s : series_) {
    os << "\n# series: " << s.label << "\n";
    const std::size_t n = s.x.size();
    std::size_t stride = 1;
    if (max_rows_per_series > 0 &&
        n > static_cast<std::size_t>(max_rows_per_series)) {
      stride = (n + static_cast<std::size_t>(max_rows_per_series) - 1) /
               static_cast<std::size_t>(max_rows_per_series);
    }
    for (std::size_t i = 0; i < n; i += stride) {
      os << s.x[i] << ' ' << s.y[i] << '\n';
    }
    // Always include the final point so curve ends are visible.
    if (stride > 1 && n > 0 && (n - 1) % stride != 0) {
      os << s.x[n - 1] << ' ' << s.y[n - 1] << '\n';
    }
  }
}

}  // namespace gridsub::report
