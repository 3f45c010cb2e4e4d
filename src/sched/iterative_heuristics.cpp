// Min-Min, Max-Min and Sufferage: iterative heuristics that, every round,
// query each remaining job's best admissible site and commit one job.
#include <limits>
#include <numeric>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/site_index.hpp"

namespace gridsched::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// How a rule ranks jobs: larger wins, `primary` first, then `secondary`;
/// a tie keeps the earlier job.
struct Priority {
  double primary;
  double secondary;
};

/// The shared round loop. `floor` is the priority a job must beat to be
/// committed at all; `priority` ranks a job's pick, which carries the
/// runner-up completion only when `runner_up` asks for it.
template <typename PriorityFn>
void commit_rounds(const sim::SchedulerContext& context,
                   const RiskFilter& filter, SiteIndex& index,
                   std::vector<std::size_t>& unassigned,
                   std::vector<sim::Assignment>& out, bool runner_up,
                   Priority floor, PriorityFn&& priority) {
  index.rebuild(context);
  unassigned.resize(context.jobs.size());
  std::iota(unassigned.begin(), unassigned.end(), std::size_t{0});
  out.clear();

  while (!unassigned.empty()) {
    std::size_t pick_pos = unassigned.size();
    sim::SiteId pick_site = sim::kInvalidSite;
    Priority pick = floor;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const sim::BatchJob& job = context.jobs[unassigned[pos]];
      const RiskFilter::JobFilter admission = filter.job(job);
      const SiteIndex::Pick scan =
          runner_up
              ? index.best_two(job, admission)
              : index.best(job, admission, SiteIndex::Score::kCompletion);
      if (scan.site == sim::kInvalidSite) continue;
      const Priority p = priority(scan);
      if (p.primary > pick.primary ||
          (p.primary == pick.primary && p.secondary > pick.secondary)) {
        pick = p;
        pick_pos = pos;
        pick_site = scan.site;
      }
    }
    if (pick_pos == unassigned.size()) break;  // nothing admissible remains

    const std::size_t j = unassigned[pick_pos];
    const sim::BatchJob& job = context.jobs[j];
    index.reserve(pick_site, job.nodes, context.exec_time(job, pick_site),
                  context.now);
    out.push_back({j, pick_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
  }
}

}  // namespace

void MinMinScheduler::schedule_into(const sim::SchedulerContext& context,
                                    std::vector<sim::Assignment>& out) {
  // The job whose minimum completion time is globally smallest.
  commit_rounds(context, filter_, index_, unassigned_, out, false,
                {-kInf, 0.0}, [](const SiteIndex::Pick& scan) {
                  return Priority{-scan.best, 0.0};
                });
}

void MaxMinScheduler::schedule_into(const sim::SchedulerContext& context,
                                    std::vector<sim::Assignment>& out) {
  // The job whose minimum completion time is the *largest*.
  commit_rounds(context, filter_, index_, unassigned_, out, false,
                {-1.0, 0.0}, [](const SiteIndex::Pick& scan) {
                  return Priority{scan.best, 0.0};
                });
}

void SufferageScheduler::schedule_into(const sim::SchedulerContext& context,
                                       std::vector<sim::Assignment>& out) {
  // Sufferage = second-best completion - best completion; a job with a
  // single admissible site suffers infinitely if it is not served. Ties go
  // to the earlier-completing job.
  commit_rounds(context, filter_, index_, unassigned_, out, true,
                {-1.0, -kInf}, [](const SiteIndex::Pick& scan) {
                  const double sufferage =
                      scan.second == kInf ? kInf : scan.second - scan.best;
                  return Priority{sufferage, -scan.best};
                });
}

}  // namespace gridsched::sched
