// MCT, MET and OLB: single-pass heuristics that place jobs in batch order.
#include <limits>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"

namespace gridsched::sched {

namespace {

/// Shared single-pass skeleton: `score` returns the value to minimise for
/// an admissible (job, site) pair given the current availability.
template <typename ScoreFn>
void single_pass(const sim::SchedulerContext& context,
                 const RiskFilter& filter,
                 std::vector<sim::NodeAvailability>& avail,
                 std::vector<sim::Assignment>& out, ScoreFn&& score) {
  avail = context.avail;
  out.clear();

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    const RiskFilter::JobFilter admission = filter.job(job);
    sim::SiteId best_site = sim::kInvalidSite;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < context.sites.size(); ++s) {
      if (!admission.admits(context, s)) continue;
      const double value = score(job, s, avail[s]);
      if (value < best_score) {
        best_score = value;
        best_site = static_cast<sim::SiteId>(s);
      }
    }
    if (best_site == sim::kInvalidSite) continue;  // stays pending
    avail[best_site].reserve(job.nodes, context.exec_time(job, best_site),
                             context.now);
    out.push_back({j, best_site});
  }
}

}  // namespace

void MctScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, avail_, out,
              [&](const sim::BatchJob& job, std::size_t s,
                  const sim::NodeAvailability& avail) {
                return avail
                    .preview(job.nodes, context.exec_time(job, s), context.now)
                    .end;
              });
}

void MetScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, avail_, out,
              [&](const sim::BatchJob& job, std::size_t s,
                  const sim::NodeAvailability&) {
                return context.exec_time(job, s);
              });
}

void OlbScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, avail_, out,
              [&](const sim::BatchJob& job, std::size_t,
                  const sim::NodeAvailability& avail) {
                return avail.earliest_start(job.nodes, context.now);
              });
}

}  // namespace gridsched::sched
