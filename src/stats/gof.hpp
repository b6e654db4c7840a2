#pragma once

// Sizing probe campaigns: the DKW inequality converts a campaign size
// into a uniform ECDF error band that core/uncertainty.hpp propagates to
// E_J bounds. (Fit quality is judged by the KS distance in stats/fit.)

#include <cstddef>

namespace gridsub::stats {

/// Dvoretzky-Kiefer-Wolfowitz band half-width: with probability >= 1-alpha
/// the ECDF of n iid samples stays within eps of the true CDF uniformly,
///   eps = sqrt(ln(2/alpha) / (2 n)).
double dkw_epsilon(std::size_t n, double alpha);

}  // namespace gridsub::stats
