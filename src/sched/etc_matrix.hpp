// Expected-Time-to-Compute matrix (Braun et al. terminology): exec(j, s) is
// the execution time of batch job j on site s, infinity when the job does
// not fit. The GA materialises one per batch (core::build_problem); the
// list heuristics read each exec time once and resolve it on the fly
// through SchedulerContext::exec_time instead.
#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "sim/scheduling.hpp"

namespace gridsched::sched {

class EtcMatrix {
 public:
  static constexpr double kInfeasible = std::numeric_limits<double>::infinity();

  /// Batch view of the context's execution model: the raw per-(job, site)
  /// ETC when the workload carries one, the rank-1 work/speed law
  /// otherwise.
  explicit EtcMatrix(const sim::SchedulerContext& context);

  [[nodiscard]] std::size_t jobs() const noexcept { return n_jobs_; }
  [[nodiscard]] std::size_t sites() const noexcept { return n_sites_; }

  /// Execution time of job j on site s (kInfeasible if it does not fit).
  [[nodiscard]] double exec(std::size_t j, std::size_t s) const noexcept {
    assert(j < n_jobs_ && s < n_sites_);
    return cells_[j * n_sites_ + s];
  }

  [[nodiscard]] const std::vector<double>& flattened() const noexcept {
    return cells_;
  }

 private:
  std::size_t n_jobs_;
  std::size_t n_sites_;
  std::vector<double> cells_;
};

}  // namespace gridsched::sched
