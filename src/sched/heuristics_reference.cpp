// The list heuristics as they stood before they resolved exec times on the
// fly: each cycle builds a batch x sites execution-time table (EtcTable
// below), deep-copies the availability profiles and runs the full
// admissible() test per (job, site) pair. Kept as the golden reference the
// schedulers in iterative_heuristics.cpp and simple_heuristics.cpp must
// match assignment for assignment (tests/sched_differential_test.cpp). Not
// used on any hot path.
#include <limits>
#include <stdexcept>

#include "sched/heuristics.hpp"
#include "sched/risk_filter.hpp"

namespace gridsched::sched {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// Expected-Time-to-Compute table of one cycle (Braun et al. terminology):
/// exec(j, s) is `context.exec_time` where batch job j fits site s,
/// kInfeasible where it does not.
class EtcTable {
 public:
  explicit EtcTable(const sim::SchedulerContext& context)
      : n_sites_(context.sites.size()),
        cells_(context.jobs.size() * n_sites_, kInfeasible) {
    for (std::size_t j = 0; j < context.jobs.size(); ++j) {
      const sim::BatchJob& job = context.jobs[j];
      for (std::size_t s = 0; s < n_sites_; ++s) {
        if (job.nodes <= context.sites[s].nodes) {
          cells_[j * n_sites_ + s] = context.exec_time(job, s);
        }
      }
    }
  }

  [[nodiscard]] double exec(std::size_t j, std::size_t s) const noexcept {
    return cells_[j * n_sites_ + s];
  }

 private:
  std::size_t n_sites_;
  std::vector<double> cells_;
};

std::vector<sim::Assignment> min_min_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcTable etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // For every remaining job find its minimum-completion-time site, then
    // commit the job whose minimum is globally smallest.
    std::size_t best_pos = unassigned.size();
    sim::SiteId best_site = sim::kInvalidSite;
    double best_completion = kInfeasible;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < best_completion) {
          best_completion = completion;
          best_pos = pos;
          best_site = static_cast<sim::SiteId>(s);
        }
      }
    }
    if (best_pos == unassigned.size()) break;  // nothing admissible remains

    const std::size_t j = unassigned[best_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[best_site].reserve(job.nodes, etc.exec(j, best_site), context.now);
    result.push_back({j, best_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(best_pos));
  }
  return result;
}

std::vector<sim::Assignment> max_min_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcTable etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // Each remaining job's best (minimum) completion time; commit the job
    // whose best completion is the *largest*.
    std::size_t pick_pos = unassigned.size();
    sim::SiteId pick_site = sim::kInvalidSite;
    double pick_completion = -1.0;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      sim::SiteId job_best_site = sim::kInvalidSite;
      double job_best = kInfeasible;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < job_best) {
          job_best = completion;
          job_best_site = static_cast<sim::SiteId>(s);
        }
      }
      if (job_best_site == sim::kInvalidSite) continue;
      if (job_best > pick_completion) {
        pick_completion = job_best;
        pick_pos = pos;
        pick_site = job_best_site;
      }
    }
    if (pick_pos == unassigned.size()) break;

    const std::size_t j = unassigned[pick_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[pick_site].reserve(job.nodes, etc.exec(j, pick_site), context.now);
    result.push_back({j, pick_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
  }
  return result;
}

std::vector<sim::Assignment> sufferage_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  const EtcTable etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;

  std::vector<std::size_t> unassigned(context.jobs.size());
  for (std::size_t j = 0; j < unassigned.size(); ++j) unassigned[j] = j;

  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  while (!unassigned.empty()) {
    // Sufferage = second-best completion - best completion. A job with a
    // single admissible site suffers infinitely if it is not served.
    std::size_t pick_pos = unassigned.size();
    sim::SiteId pick_site = sim::kInvalidSite;
    double pick_sufferage = -1.0;
    double pick_best_completion = kInfeasible;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t j = unassigned[pos];
      const sim::BatchJob& job = context.jobs[j];
      sim::SiteId best_site = sim::kInvalidSite;
      double best = kInfeasible;
      double second = kInfeasible;
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!admissible(context, job, s, policy)) continue;
        const double completion =
            avail[s].preview(job.nodes, etc.exec(j, s), context.now).end;
        if (completion < best) {
          second = best;
          best = completion;
          best_site = static_cast<sim::SiteId>(s);
        } else if (completion < second) {
          second = completion;
        }
      }
      if (best_site == sim::kInvalidSite) continue;
      const double sufferage =
          second == kInfeasible
              ? std::numeric_limits<double>::infinity()
              : second - best;
      // Ties broken toward the earlier-completing job for determinism.
      if (sufferage > pick_sufferage ||
          (sufferage == pick_sufferage && best < pick_best_completion)) {
        pick_sufferage = sufferage;
        pick_pos = pos;
        pick_site = best_site;
        pick_best_completion = best;
      }
    }
    if (pick_pos == unassigned.size()) break;

    const std::size_t j = unassigned[pick_pos];
    const sim::BatchJob& job = context.jobs[j];
    avail[pick_site].reserve(job.nodes, etc.exec(j, pick_site), context.now);
    result.push_back({j, pick_site});
    unassigned.erase(unassigned.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
  }
  return result;
}

/// Shared single-pass skeleton: `score` returns the value to minimise for
/// an admissible (job, site) pair given the current availability.
template <typename ScoreFn>
std::vector<sim::Assignment> single_pass(const sim::SchedulerContext& context,
                                         const security::RiskPolicy& policy,
                                         ScoreFn&& score) {
  const EtcTable etc(context);
  std::vector<sim::NodeAvailability> avail = context.avail;
  std::vector<sim::Assignment> result;
  result.reserve(context.jobs.size());

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    const sim::BatchJob& job = context.jobs[j];
    sim::SiteId best_site = sim::kInvalidSite;
    double best_score = kInfeasible;
    for (std::size_t s = 0; s < context.sites.size(); ++s) {
      if (!admissible(context, job, s, policy)) continue;
      const double value = score(j, s, job, avail[s], etc);
      if (value < best_score) {
        best_score = value;
        best_site = static_cast<sim::SiteId>(s);
      }
    }
    if (best_site == sim::kInvalidSite) continue;  // stays pending
    avail[best_site].reserve(job.nodes, etc.exec(j, best_site), context.now);
    result.push_back({j, best_site});
  }
  return result;
}

std::vector<sim::Assignment> mct_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t j, std::size_t s, const sim::BatchJob& job,
                         const sim::NodeAvailability& avail,
                         const EtcTable& etc) {
                       return avail.preview(job.nodes, etc.exec(j, s),
                                            context.now).end;
                     });
}

std::vector<sim::Assignment> met_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t j, std::size_t s, const sim::BatchJob&,
                         const sim::NodeAvailability&, const EtcTable& etc) {
                       return etc.exec(j, s);
                     });
}

std::vector<sim::Assignment> olb_schedule(
    const sim::SchedulerContext& context, const security::RiskPolicy& policy) {
  return single_pass(context, policy,
                     [&](std::size_t, std::size_t, const sim::BatchJob& job,
                         const sim::NodeAvailability& avail, const EtcTable&) {
                       return avail.earliest_start(job.nodes, context.now);
                     });
}

}  // namespace

std::vector<sim::Assignment> reference_schedule(
    const std::string& heuristic, const sim::SchedulerContext& context,
    const security::RiskPolicy& policy) {
  if (heuristic == "min-min") return min_min_schedule(context, policy);
  if (heuristic == "max-min") return max_min_schedule(context, policy);
  if (heuristic == "sufferage") return sufferage_schedule(context, policy);
  if (heuristic == "mct") return mct_schedule(context, policy);
  if (heuristic == "met") return met_schedule(context, policy);
  if (heuristic == "olb") return olb_schedule(context, policy);
  throw std::invalid_argument("unknown heuristic: " + heuristic);
}

}  // namespace gridsched::sched
