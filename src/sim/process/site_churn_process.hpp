// Site-churn handler: sites alternate between up and down. kSiteDown masks
// the victim out of every subsequent SchedulerContext, revokes its active
// reservations through the stored Attempt::window (same
// release-by-stored-window accounting as failure releases) and re-queues
// the interrupted jobs — which keep their secure_only flag, so a
// previously failed job still retries safely. The paired kSiteUp restores
// the site to the mask.
//
// Timelines are either drawn online — per-site exponential up/down
// alternation with MTBF/MTTR means, each site on its own
// SeedMix(seed).mix("site-churn").mix(site) RNG stream so draws are
// independent of every other stochastic component — or supplied as an
// explicit outage script (tests, trace-driven what-ifs). SimKernel
// validates the script and rejects it alongside churning parameters.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace gridsched::sim {

class SiteChurnProcess final {
 public:
  /// `params[s]` drives site s (entries beyond the site count are ignored;
  /// sites without an entry, or with mtbf/mttr <= 0, never churn);
  /// `script` lists outages to run instead, in the given order. `seed` is
  /// EngineConfig::seed.
  SiteChurnProcess(std::vector<SiteChurnParams> params,
                   std::vector<SiteOutage> script, std::uint64_t seed);

  /// Push the script's events, or each churning site's first outage.
  void start(SimKernel& kernel);
  /// Mask the site, revoke every active attempt on it and draw its
  /// recovery.
  void site_down(SimKernel& kernel, const Event& event);
  /// Unmask the site and draw its next outage.
  void site_up(SimKernel& kernel, const Event& event);

 private:
  void push_site_event(SimKernel& kernel, EventKind kind, SiteId site,
                       Time time);
  /// True when `site` draws its timeline online.
  [[nodiscard]] bool churns(SiteId site) const noexcept {
    return site < params_.size() && params_[site].churns();
  }

  std::vector<SiteChurnParams> params_;
  std::vector<SiteOutage> script_;
  std::uint64_t seed_ = 0;
  std::vector<util::Rng> streams_;  ///< per site, stochastic mode only
  /// Persistent victim scratch (rebuilt per outage, keeps its capacity so
  /// site-down handling stays heap-free in the steady-state loop).
  std::vector<JobId> victims_;
};

}  // namespace gridsched::sim
