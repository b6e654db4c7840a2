// Table 3: delayed resubmission with the ratio t∞/t0 imposed — for each
// ratio in {1.1 .. 2.0}, the minimizing (t0, t∞), minimal E_J, N∥ and the
// improvement over single resubmission (2006-IX).

#include <iostream>

#include "bench_util.hpp"
#include "core/delayed_resubmission.hpp"
#include "core/multiple_submission.hpp"
#include "report/table.hpp"

int main() {
  using namespace gridsub;
  bench::print_header("table3_delayed_ratio",
                      "Table 3 (delayed strategy per imposed ratio)");

  const auto m = bench::load_model("2006-IX");
  const core::DelayedResubmission delayed(m);
  const core::MultipleSubmission single(m, 1);
  const double baseline = single.optimize().metrics.expectation;
  std::cout << "single-resubmission baseline E_J = " << baseline << " s\n\n";

  report::Table table({"t_inf/t0", "N_par", "best t_inf", "best t0",
                       "min E_J", "d(100%)"});
  for (double ratio = 1.1; ratio <= 2.001; ratio += 0.1) {
    const auto opt = delayed.optimize_with_ratio(ratio);
    table.row()
        .cell(ratio, 1)
        .cell(opt.n_parallel, 2)
        .cell(report::seconds(opt.t_inf))
        .cell(report::seconds(opt.t0))
        .cell(report::seconds(opt.metrics.expectation))
        .percent((opt.metrics.expectation - baseline) / baseline, 1);
  }
  table.print(std::cout);
  std::cout << "\npaper shape check: every ratio row beats the single-"
               "resubmission baseline; N_par stays in [1, ~1.6].\n";
  return 0;
}
