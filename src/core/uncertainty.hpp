#pragma once

// Finite-sample uncertainty of strategy predictions.
//
// Every E_J in the paper is computed from an ECDF estimated with a probe
// campaign of n jobs. By Dvoretzky-Kiefer-Wolfowitz, with probability
// >= 1-alpha the true F̃ lies in the uniform band [F̃_n - eps, F̃_n + eps],
// eps = sqrt(ln(2/alpha)/2n). Every strategy expectation in core/ is
// *pointwise monotone decreasing* in F̃ (stochastically faster jobs finish
// sooner), so evaluating the band's edge models brackets the truth:
//   E_J(F̃+eps) <= E_J(true) <= E_J(F̃-eps)   w.p. >= 1-alpha.
// This turns "how many probes is enough?" (§7.2) into hard intervals
// instead of folklore.

#include <cstddef>

#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "model/discretized.hpp"

namespace gridsub::core {

/// A two-sided bound on a strategy expectation.
struct ExpectationBand {
  double lower = 0.0;     ///< optimistic edge: E_J under F̃ + eps
  double estimate = 0.0;  ///< point estimate under F̃
  double upper = 0.0;     ///< pessimistic edge: E_J under F̃ - eps
};

class UncertaintyAnalysis {
 public:
  /// `m` is the fitted model; `n_probes` the campaign size behind it;
  /// `alpha` the band's two-sided failure probability.
  UncertaintyAnalysis(const model::DiscretizedLatencyModel& m,
                      std::size_t n_probes, double alpha = 0.05);

  /// The DKW half-width eps.
  [[nodiscard]] double epsilon() const { return epsilon_; }

  /// Edge models (exposed for custom evaluations).
  [[nodiscard]] const model::DiscretizedLatencyModel& optimistic() const {
    return optimistic_;
  }
  [[nodiscard]] const model::DiscretizedLatencyModel& pessimistic() const {
    return pessimistic_;
  }

  /// Bands on E_J for the three strategies at fixed parameters (b = 1 is
  /// single resubmission). The upper edge is +inf when the pessimistic
  /// model cannot complete by t∞ (F̃(t∞) - eps <= 0): the campaign was
  /// too small to certify anything.
  [[nodiscard]] ExpectationBand multiple(int b, double t_inf) const;
  [[nodiscard]] ExpectationBand delayed(double t0, double t_inf) const;

 private:
  const model::DiscretizedLatencyModel& base_;
  double epsilon_;
  model::DiscretizedLatencyModel optimistic_;   // F̃ + eps (capped at 1)
  model::DiscretizedLatencyModel pessimistic_;  // F̃ - eps (floored at 0)
};

}  // namespace gridsub::core
