// Min-Min, Max-Min and Sufferage: iterative heuristics that, every round,
// scan each remaining job's admissible sites and commit one job.
#include <limits>
#include <numeric>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"

namespace gridsched::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One job's scan result: its minimum-completion site, the minimum and the
/// runner-up completion (kInf when fewer sites are admissible).
struct JobBest {
  sim::SiteId site = sim::kInvalidSite;
  double best = kInf;
  double second = kInf;
};

/// How a rule ranks jobs: larger wins, `primary` first, then `secondary`;
/// a tie keeps the earlier job.
struct Priority {
  double primary;
  double secondary;
};

/// The shared round loop. `floor` is the priority a job must beat to be
/// committed at all; `priority` ranks a job's scan result.
template <typename PriorityFn>
void commit_rounds(const sim::SchedulerContext& context,
                   const RiskFilter& filter,
                   std::vector<sim::NodeAvailability>& avail,
                   std::vector<std::size_t>& unassigned,
                   std::vector<sim::Assignment>& out, Priority floor,
                   PriorityFn&& priority) {
  avail = context.avail;
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
      JobBest scan;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admission.admits(context, s)) continue;
        const double completion =
            avail[s]
                .preview(job.nodes, context.exec_time(job, s), context.now)
                .end;
        if (completion < scan.best) {
          scan.second = scan.best;
          scan.best = completion;
          scan.site = static_cast<sim::SiteId>(s);
        } else if (completion < scan.second) {
          scan.second = completion;
        }
      }
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
    avail[pick_site].reserve(job.nodes, context.exec_time(job, pick_site),
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
  commit_rounds(context, filter_, avail_, unassigned_, out, {-kInf, 0.0},
                [](const JobBest& scan) {
                  return Priority{-scan.best, 0.0};
                });
}

void MaxMinScheduler::schedule_into(const sim::SchedulerContext& context,
                                    std::vector<sim::Assignment>& out) {
  // The job whose minimum completion time is the *largest*.
  commit_rounds(context, filter_, avail_, unassigned_, out, {-1.0, 0.0},
                [](const JobBest& scan) { return Priority{scan.best, 0.0}; });
}

void SufferageScheduler::schedule_into(const sim::SchedulerContext& context,
                                       std::vector<sim::Assignment>& out) {
  // Sufferage = second-best completion - best completion; a job with a
  // single admissible site suffers infinitely if it is not served. Ties go
  // to the earlier-completing job.
  commit_rounds(context, filter_, avail_, unassigned_, out, {-1.0, -kInf},
                [](const JobBest& scan) {
                  const double sufferage =
                      scan.second == kInf ? kInf : scan.second - scan.best;
                  return Priority{sufferage, -scan.best};
                });
}

}  // namespace gridsched::sched
