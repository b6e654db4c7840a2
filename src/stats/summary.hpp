#pragma once

// Descriptive statistics of a sample.
//
// The per-trace mean and standard deviation of latency below the outlier
// timeout in the paper's Table 1 come from here (traces/trace.cpp), and
// the KDE's Silverman bandwidth reads the standard deviation and the
// quartiles.

#include <span>

namespace gridsub::stats {

/// Arithmetic mean; requires non-empty input.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); requires size >= 2.
double variance(std::span<const double> xs);

/// sqrt(variance).
double stddev(std::span<const double> xs);

/// Linear-interpolation sample quantile (R type-7). p in [0,1].
double quantile(std::span<const double> xs, double p);

}  // namespace gridsub::stats
