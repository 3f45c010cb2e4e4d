#include "sched/etc_matrix.hpp"

namespace gridsched::sched {

// The one feasibility-gated fill: cell = context.exec_time where the job
// fits, kInfeasible otherwise (core::build_problem resolves cells here).
EtcMatrix::EtcMatrix(const sim::SchedulerContext& context)
    : n_jobs_(context.jobs.size()), n_sites_(context.sites.size()),
      cells_(n_jobs_ * n_sites_, kInfeasible) {
  for (std::size_t j = 0; j < n_jobs_; ++j) {
    const sim::BatchJob& job = context.jobs[j];
    for (std::size_t s = 0; s < n_sites_; ++s) {
      if (job.nodes <= context.sites[s].nodes) {
        cells_[j * n_sites_ + s] = context.exec_time(job, s);
      }
    }
  }
}

}  // namespace gridsched::sched
