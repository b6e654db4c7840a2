#include "core/uncertainty.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "stats/gof.hpp"

namespace gridsub::core {

namespace {

model::DiscretizedLatencyModel shift_grid(
    const model::DiscretizedLatencyModel& m, double delta,
    const char* label) {
  const auto grid = m.ftilde_grid();
  std::vector<double> shifted(grid.size());
  // F̃(0) = 0 must be preserved: no probe finishes instantly, band or not.
  shifted[0] = 0.0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    shifted[i] = std::clamp(grid[i] + delta, 0.0, 1.0);
    shifted[i] = std::max(shifted[i], shifted[i - 1]);  // keep monotone
  }
  return model::DiscretizedLatencyModel::from_grid(
      std::move(shifted), m.step(), std::string(label) + ":" + m.name());
}

}  // namespace

UncertaintyAnalysis::UncertaintyAnalysis(
    const model::DiscretizedLatencyModel& m, std::size_t n_probes,
    double alpha)
    : base_(m),
      epsilon_(stats::dkw_epsilon(n_probes, alpha)),
      optimistic_(shift_grid(m, stats::dkw_epsilon(n_probes, alpha),
                             "dkw-upper")),
      pessimistic_(shift_grid(m, -stats::dkw_epsilon(n_probes, alpha),
                              "dkw-lower")) {}

ExpectationBand UncertaintyAnalysis::multiple(int b, double t_inf) const {
  ExpectationBand band;
  band.lower = MultipleSubmission(optimistic_, b).expectation(t_inf);
  band.estimate = MultipleSubmission(base_, b).expectation(t_inf);
  band.upper = MultipleSubmission(pessimistic_, b).expectation(t_inf);
  return band;
}

ExpectationBand UncertaintyAnalysis::delayed(double t0, double t_inf) const {
  ExpectationBand band;
  band.lower = DelayedResubmission(optimistic_).expectation(t0, t_inf);
  band.estimate = DelayedResubmission(base_).expectation(t0, t_inf);
  band.upper = DelayedResubmission(pessimistic_).expectation(t0, t_inf);
  return band;
}

}  // namespace gridsub::core
