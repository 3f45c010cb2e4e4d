// Test helper: the kernel recycles a job's slot once the job retires, so
// per-job records are gone after run(). JobRecords keeps a copy of each
// job as it completes — every field is final by then — indexed by id.
#pragma once

#include <vector>

#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace gridsched::sim {

class JobRecords final : public KernelObserver {
 public:
  void on_run_start(const SimKernel& kernel) override {
    jobs_.assign(kernel.total_jobs(), Job{});
  }
  void on_job_complete(const SimKernel& kernel, JobId job, SiteId,
                       Time) override {
    jobs_[job] = kernel.job(job);
  }

  /// Completed jobs by id (default-constructed for unfinished ones).
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept {
    return jobs_;
  }

 private:
  std::vector<Job> jobs_;
};

}  // namespace gridsched::sim
