// Candidate-site filtering shared by every scheduling algorithm: combines
// the configured risk mode with structural feasibility (node count) and the
// fail-stop rule (secure_only retries go to safe sites in every mode).
#pragma once

#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

/// True iff `job` may be placed on `site` under `policy`. This overload
/// sees only the static site description — it cannot know about the
/// context's availability mask, so schedulers use the context overload
/// below.
bool admissible(const sim::BatchJob& job, const sim::SiteConfig& site,
                const security::RiskPolicy& policy) noexcept;

/// True iff `job` may be placed on the context's site `s` under `policy`:
/// the static filter above AND the site is not masked out (a churned-down
/// site is never admissible, whatever the risk mode). The one admissibility
/// predicate every scheduler must use, directly or through RiskFilter.
bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskPolicy& policy) noexcept;

/// Mask-aware admissible set over the context's sites, in site order.
std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskPolicy& policy);

/// admissible(context, job, s, policy) with Eq. 1 hoisted out of the site
/// loop. Every mode admits a site exactly when the deficit sd - sl is small
/// enough, so the filter precomputes, once per policy, a band on the
/// deficit: at or below `admit_upto` the site is admitted, above
/// `reject_above` it is rejected, and only a deficit inside the band (or a
/// NaN one) pays for the exact RiskPolicy::admissible call. Secure mode and
/// secure_only jobs use the band [0, 0], risky mode [inf, inf].
///
/// The f-risky edges sit around d* = -log1p(-f) / lambda, widened by a
/// margin far larger than the rounding error of 1 - exp(-lambda * deficit)
/// (an absolute 2^-40 in probability, a relative 2^-30 in deficit), so a
/// decision outside the band is the exact predicate's decision for any
/// exp/log1p within a few thousand ulps — no monotonicity of exp assumed.
class RiskFilter {
 public:
  explicit RiskFilter(const security::RiskPolicy& policy) noexcept;

  /// One job's admission test. Refers to the filter and the job, which
  /// must outlive it.
  class JobFilter {
   public:
    /// Same answer as admissible(context, job, s, policy).
    [[nodiscard]] bool admits(const sim::SchedulerContext& context,
                              std::size_t s) const noexcept {
      if (!context.site_usable(s)) return false;
      const sim::SiteConfig& site = context.sites[s];
      if (job_->nodes > site.nodes) return false;
      const double deficit = job_->demand - site.security;
      if (deficit <= band_.admit_upto) return true;
      if (deficit > band_.reject_above) return false;
      return admissible(*job_, site, *policy_);
    }

    /// True when admits() rejects every site whose level is at most
    /// `security`: the smallest such deficit is already above the band's
    /// reject edge (and admit_upto <= reject_above in every band). A NaN
    /// demand, level or band answers false, so those sites reach admits().
    [[nodiscard]] bool rejects_up_to(double security) const noexcept {
      return job_->demand - security > band_.reject_above;
    }

   private:
    friend class RiskFilter;
    struct Band {
      double admit_upto;
      double reject_above;
    };
    JobFilter(const sim::BatchJob& job, Band band,
              const security::RiskPolicy& policy) noexcept
        : job_(&job), band_(band), policy_(&policy) {}

    const sim::BatchJob* job_;
    Band band_;
    const security::RiskPolicy* policy_;
  };

  [[nodiscard]] JobFilter job(const sim::BatchJob& job) const noexcept {
    return {job, job.secure_only ? kSafeBand : band_, policy_};
  }

 private:
  static constexpr JobFilter::Band kSafeBand = {0.0, 0.0};

  security::RiskPolicy policy_;
  JobFilter::Band band_;
};

}  // namespace gridsched::sched
