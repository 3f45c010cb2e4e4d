#include "sched/risk_filter.hpp"

#include <cmath>
#include <limits>

namespace gridsched::sched {

bool admissible(const sim::BatchJob& job, const sim::SiteConfig& site,
                const security::RiskPolicy& policy) noexcept {
  if (job.nodes > site.nodes) return false;
  if (job.secure_only) {
    // Fail-stop rule: a previously failed job may only run where it is
    // absolutely safe, regardless of the scheduler's mode.
    return security::is_safe(job.demand, site.security);
  }
  return policy.admissible(job.demand, site.security);
}

bool admissible(const sim::SchedulerContext& context, const sim::BatchJob& job,
                std::size_t s, const security::RiskPolicy& policy) noexcept {
  return context.site_usable(s) && admissible(job, context.sites[s], policy);
}

std::vector<sim::SiteId> admissible_sites(const sim::SchedulerContext& context,
                                          const sim::BatchJob& job,
                                          const security::RiskPolicy& policy) {
  std::vector<sim::SiteId> result;
  result.reserve(context.sites.size());
  for (std::size_t s = 0; s < context.sites.size(); ++s) {
    if (admissible(context, job, s, policy)) {
      result.push_back(static_cast<sim::SiteId>(s));
    }
  }
  return result;
}

namespace {

/// Deficit at which Eq. 1 reaches probability p, d = -log1p(-p) / lambda;
/// +inf once p >= 1, where every deficit stays at or below p.
double deficit_at(double p, double lambda) noexcept {
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return -std::log1p(-p) / lambda;
}

}  // namespace

RiskFilter::RiskFilter(const security::RiskPolicy& policy) noexcept
    : policy_(policy), band_(kSafeBand) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double f = policy.f();
  const double lambda = policy.lambda();
  switch (policy.mode()) {
    case security::RiskMode::kSecure:
      return;
    case security::RiskMode::kRisky:
      band_ = {kInf, kInf};
      return;
    case security::RiskMode::kFRisky:
      break;
  }
  if (!(f >= 0.0) || !(lambda > 0.0) || !std::isfinite(lambda)) {
    // Degenerate policy: a NaN band sends every pair to the exact test.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    band_ = {nan, nan};
    return;
  }
  // Margins: kProbMargin bounds 1 - exp(-lambda * deficit) away from f by
  // far more than its rounding error; kRelMargin covers the rounding of
  // deficit_at itself.
  constexpr double kProbMargin = 0x1p-40;
  constexpr double kRelMargin = 0x1p-30;
  const double admit_p = f - kProbMargin;
  double admit =
      admit_p > 0.0 ? deficit_at(admit_p, lambda) * (1.0 - kRelMargin) : 0.0;
  // An overflowed finite edge would admit an infinite deficit that Eq. 1
  // rejects; cap it so such a pair reaches the exact test.
  if (admit == kInf && admit_p < 1.0) {
    admit = std::numeric_limits<double>::max();
  }
  band_ = {admit, deficit_at(f + kProbMargin, lambda) * (1.0 + kRelMargin)};
}

}  // namespace gridsched::sched
