// MCT, MET and OLB: single-pass heuristics that place jobs in batch order.
#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"
#include "sched/site_index.hpp"

namespace gridsched::sched {

namespace {

/// Shared single-pass skeleton: each job in batch order goes to the
/// admissible site minimising `kind`, and the reservation is committed
/// before the next job's pick.
void single_pass(const sim::SchedulerContext& context,
                 const RiskFilter& filter, SiteIndex& index,
                 std::vector<sim::Assignment>& out, SiteIndex::Score kind) {
  index.rebuild(context);
  out.clear();

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    const sim::SiteId site = index.best(job, filter.job(job), kind).site;
    if (site == sim::kInvalidSite) continue;  // stays pending
    index.reserve(site, job.nodes, context.exec_time(job, site), context.now);
    out.push_back({j, site});
  }
}

}  // namespace

void MctScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, index_, out, SiteIndex::Score::kCompletion);
}

void MetScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, index_, out, SiteIndex::Score::kExec);
}

void OlbScheduler::schedule_into(const sim::SchedulerContext& context,
                                 std::vector<sim::Assignment>& out) {
  single_pass(context, filter_, index_, out, SiteIndex::Score::kStart);
}

}  // namespace gridsched::sched
