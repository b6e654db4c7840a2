#pragma once

// Interpolation on tabulated functions.
//
// DiscretizedLatencyModel caches F̃ on a uniform grid and samples it by
// inverse transform: it inverts that tabulation with linear interpolation
// between grid nodes.

#include <span>

namespace gridsub::numerics {

/// Given a non-decreasing tabulation y over uniform grid x0 + i*dx, returns
/// the smallest x with y(x) >= target (linear interpolation between nodes);
/// clamps to the grid ends. Used to sample discretized CDFs.
double inverse_monotone(double x0, double dx, std::span<const double> y,
                        double target);

}  // namespace gridsub::numerics
