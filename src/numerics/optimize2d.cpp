#include "numerics/optimize2d.hpp"

#include <algorithm>
#include <cmath>

namespace gridsub::numerics {

namespace {

struct Vertex {
  double x, y, f;
};

}  // namespace

MinResult2D nelder_mead(const std::function<double(double, double)>& f,
                        std::array<double, 2> start,
                        std::array<double, 2> step, double ftol,
                        int max_iter) {
  MinResult2D res;
  std::array<Vertex, 3> s{};
  s[0] = {start[0], start[1], f(start[0], start[1])};
  s[1] = {start[0] + step[0], start[1], f(start[0] + step[0], start[1])};
  s[2] = {start[0], start[1] + step[1], f(start[0], start[1] + step[1])};
  res.evaluations = 3;

  constexpr double alpha = 1.0;   // reflection
  constexpr double gamma = 2.0;   // expansion
  constexpr double rho = 0.5;     // contraction
  constexpr double sigma = 0.5;   // shrink

  for (int it = 0; it < max_iter; ++it) {
    std::sort(s.begin(), s.end(),
              [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
    if (std::isfinite(s[2].f) &&
        std::abs(s[2].f - s[0].f) <=
            ftol * (std::abs(s[0].f) + std::abs(s[2].f) + 1e-30)) {
      break;
    }
    const double cx = 0.5 * (s[0].x + s[1].x);
    const double cy = 0.5 * (s[0].y + s[1].y);
    const double rx = cx + alpha * (cx - s[2].x);
    const double ry = cy + alpha * (cy - s[2].y);
    const double fr = f(rx, ry);
    ++res.evaluations;
    if (fr < s[0].f) {
      const double ex = cx + gamma * (rx - cx);
      const double ey = cy + gamma * (ry - cy);
      const double fe = f(ex, ey);
      ++res.evaluations;
      s[2] = (fe < fr) ? Vertex{ex, ey, fe} : Vertex{rx, ry, fr};
    } else if (fr < s[1].f) {
      s[2] = {rx, ry, fr};
    } else {
      const double kx = cx + rho * (s[2].x - cx);
      const double ky = cy + rho * (s[2].y - cy);
      const double fk = f(kx, ky);
      ++res.evaluations;
      if (fk < s[2].f) {
        s[2] = {kx, ky, fk};
      } else {
        for (int i = 1; i < 3; ++i) {
          s[i].x = s[0].x + sigma * (s[i].x - s[0].x);
          s[i].y = s[0].y + sigma * (s[i].y - s[0].y);
          s[i].f = f(s[i].x, s[i].y);
          ++res.evaluations;
        }
      }
    }
  }
  std::sort(s.begin(), s.end(),
            [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
  res.x = s[0].x;
  res.y = s[0].y;
  res.value = s[0].f;
  return res;
}

}  // namespace gridsub::numerics
