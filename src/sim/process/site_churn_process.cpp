#include "sim/process/site_churn_process.hpp"

#include <algorithm>
#include <utility>

namespace gridsched::sim {

SiteChurnProcess::SiteChurnProcess(std::vector<SiteChurnParams> params,
                                   std::vector<SiteOutage> script,
                                   std::uint64_t seed)
    : params_(std::move(params)), script_(std::move(script)), seed_(seed) {}

void SiteChurnProcess::push_site_event(SimKernel& kernel, EventKind kind,
                                       SiteId site, Time time) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.site = site;
  kernel.push_event(event);
}

void SiteChurnProcess::start(SimKernel& kernel) {
  if (!script_.empty()) {
    // Script order fixes the FIFO tie-break among same-time churn events.
    for (const SiteOutage& outage : script_) {
      push_site_event(kernel, EventKind::kSiteDown, outage.site, outage.down);
      push_site_event(kernel, EventKind::kSiteUp, outage.site, outage.up);
    }
    return;
  }
  const std::size_t n_sites = kernel.sites().size();
  streams_.clear();
  streams_.reserve(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    // Independent per-site streams: adding draws to one site's timeline
    // never perturbs another's, and nothing here shares state with the
    // failure handler's per-(job, attempt) hash draws.
    streams_.push_back(util::SeedMix(seed_)
                           .mix("site-churn")
                           .mix(static_cast<std::uint64_t>(s))
                           .rng());
    if (churns(static_cast<SiteId>(s))) {
      push_site_event(kernel, EventKind::kSiteDown, static_cast<SiteId>(s),
                      streams_[s].exponential(1.0 / params_[s].mtbf));
    }
  }
}

void SiteChurnProcess::site_down(SimKernel& kernel, const Event& event) {
  const SiteId site_id = event.site;
  const Time now = event.time;
  ++kernel.counters_.site_down_events;
  kernel.set_site_up(site_id, false);

  // Victim attempts, latest stored window end first: a node's free time
  // equals the *last* reservation stacked onto it, so releasing in
  // descending end order reclaims every tail that is reclaimable at all.
  // The sweep walks the slot table (only live attempts are active) but
  // records job ids — the sort below and the revocations address by id.
  victims_.clear();
  for (std::size_t j = 0; j < kernel.attempts_.size(); ++j) {
    const Attempt& attempt = kernel.attempts_[j];
    if (attempt.active && attempt.site == site_id) {
      victims_.push_back(kernel.jobs_[j].id);
    }
  }
  std::sort(victims_.begin(), victims_.end(), [&](JobId a, JobId b) {
    const Time end_a = kernel.attempt(a).window.end;
    const Time end_b = kernel.attempt(b).window.end;
    if (end_a != end_b) return end_a > end_b;
    return a < b;  // deterministic tie-break
  });

  for (const JobId job_id : victims_) {
    Job& job = kernel.mutable_job(job_id);
    ++job.interruptions;
    ++kernel.counters_.interrupted_attempts;
    // Reclaim through the stored window — the same revocation primitive
    // failure releases use. An unreclaimable node here means an earlier
    // revoked reservation was stacked behind a later one we already
    // reset; the capacity is free either way, but the shortfall is
    // surfaced instead of silently ignored. The interrupted job re-enters
    // the batch queue with its flags intact: a secure_only retry stays
    // secure_only.
    const unsigned released = kernel.revoke_attempt(job_id, now);
    kernel.counters_.churn_released_nodes += released;
    kernel.counters_.churn_unreleased_nodes += job.nodes - released;
  }
  if (!victims_.empty()) kernel.request_cycle(now);

  if (churns(site_id)) {
    push_site_event(kernel, EventKind::kSiteUp, site_id,
                    now + streams_[site_id].exponential(
                              1.0 / params_[site_id].mttr));
  }
}

void SiteChurnProcess::site_up(SimKernel& kernel, const Event& event) {
  ++kernel.counters_.site_up_events;
  kernel.set_site_up(event.site, true);
  if (churns(event.site)) {
    push_site_event(kernel, EventKind::kSiteDown, event.site,
                    event.time + streams_[event.site].exponential(
                                     1.0 / params_[event.site].mtbf));
  }
}

}  // namespace gridsched::sim
