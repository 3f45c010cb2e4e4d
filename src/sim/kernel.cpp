#include "sim/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/process/arrival_process.hpp"
#include "sim/process/batch_cycle_process.hpp"
#include "sim/process/security_failure_process.hpp"
#include "sim/process/site_churn_process.hpp"

namespace gridsched::sim {

namespace {

/// Initial id->slot ring capacity (grows by doubling).
constexpr std::size_t kInitialSlotRing = 64;
/// Slots reserved up front: the whole job count for workloads up to this
/// size, so the slot vectors never reallocate while their jobs run (churn
/// can stall in-order retirement until nearly every job holds a slot);
/// larger streams double from here. Reserved pages that are never touched
/// cost no resident memory.
constexpr std::size_t kReservedSlots = std::size_t{1} << 16;

std::size_t checked_stream_size(
    const std::unique_ptr<workload::JobStream>& stream) {
  if (stream == nullptr) {
    throw std::invalid_argument("SimKernel: null job stream");
  }
  return stream->size();
}

/// An outage script the site-churn handler can run: every outage is a
/// positive-length window on a site the grid has, and no two outages of
/// one site overlap.
void validate_outages(const std::vector<SiteOutage>& outages,
                      std::size_t n_sites) {
  for (const SiteOutage& outage : outages) {
    if (!(outage.up > outage.down) || outage.down < 0.0) {
      throw std::invalid_argument(
          "SimKernel: outage must satisfy 0 <= down < up");
    }
    if (outage.site >= n_sites) {
      throw std::invalid_argument("SimKernel: outage names site " +
                                  std::to_string(outage.site) + " of a " +
                                  std::to_string(n_sites) + "-site grid");
    }
  }
  // The availability mask is a boolean, so overlapping outages for one
  // site would let the first kSiteUp re-enable a site a second outage
  // still holds down. Reject them instead of mis-simulating.
  std::vector<SiteOutage> sorted = outages;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SiteOutage& a, const SiteOutage& b) {
                     if (a.site != b.site) return a.site < b.site;
                     return a.down < b.down;
                   });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].site == sorted[i - 1].site &&
        sorted[i].down < sorted[i - 1].up) {
      throw std::invalid_argument(
          "SimKernel: overlapping outages for one site");
    }
  }
}

bool any_churns(const std::vector<SiteChurnParams>& churn) {
  return std::any_of(churn.begin(), churn.end(),
                     [](const SiteChurnParams& p) { return p.churns(); });
}

}  // namespace

SimKernel::SimKernel(std::vector<SiteConfig> sites,
                     std::unique_ptr<workload::JobStream> stream,
                     EngineConfig config, ExecModel exec_model,
                     std::vector<SiteChurnParams> churn,
                     std::vector<SiteOutage> outages)
    : config_(config),
      exec_model_(std::move(exec_model)),
      total_jobs_(checked_stream_size(stream)),
      churn_(std::move(churn)),
      outages_(std::move(outages)) {
  if (sites.empty()) throw std::invalid_argument("SimKernel: no sites");
  if (config_.batch_interval <= 0.0) {
    throw std::invalid_argument("SimKernel: batch_interval must be > 0");
  }
  validate_outages(outages_, sites.size());
  if (!outages_.empty() && any_churns(churn_)) {
    throw std::invalid_argument(
        "SimKernel: an outage script and churning site parameters are "
        "exclusive");
  }
  sites_.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    SiteConfig sc = sites[i];
    sc.id = static_cast<SiteId>(i);  // ids are dense indices by construction
    sites_.emplace_back(sc);
  }
  // The matrix rows are keyed by dense job ids; a shape mismatch would
  // silently read a different job's row.
  exec_model_.check_shape(total_jobs_, sites_.size());
  site_up_.assign(sites_.size(), 1);
  stream_ = std::move(stream);
  slot_of_.resize(kInitialSlotRing);
  slot_mask_ = static_cast<std::uint32_t>(kInitialSlotRing - 1);
  reserve_slots(std::min(total_jobs_, kReservedSlots));

  // Per-admission feasibility must be O(1): precompute, for every node
  // count k, the best security level any site with >= k nodes offers.
  // is_safe(demand, level) is monotone in level, so "some site fits and
  // is safe" == "is_safe(demand, best_security_[nodes])".
  unsigned max_nodes = 0;
  for (const GridSite& site : sites_) {
    max_nodes = std::max(max_nodes, site.config().nodes);
  }
  best_security_.assign(static_cast<std::size_t>(max_nodes) + 1, -1.0);
  for (const GridSite& site : sites_) {
    double& best = best_security_[site.config().nodes];
    best = std::max(best, site.security());
  }
  for (std::size_t k = max_nodes; k-- > 1;) {
    best_security_[k] = std::max(best_security_[k], best_security_[k + 1]);
  }
}

void SimKernel::validate_admitted(const Job& job) const {
  if (job.work <= 0.0)
    throw std::invalid_argument("SimKernel: job work must be > 0");
  if (job.nodes == 0)
    throw std::invalid_argument("SimKernel: job nodes must be > 0");
  if (job.arrival < 0.0)
    throw std::invalid_argument("SimKernel: negative arrival");
  // Lazy one-arrival-ahead injection only preserves the (time, seq) event
  // order for sorted streams.
  if (job.arrival < last_arrival_) {
    throw std::invalid_argument(
        "SimKernel: job stream arrivals must be nondecreasing (job " +
        std::to_string(job.id) + ")");
  }
  const bool safe_home =
      job.nodes < best_security_.size() &&
      security::is_safe(job.demand, best_security_[job.nodes]);
  if (!safe_home) {
    throw std::invalid_argument(
        "SimKernel: job " + std::to_string(job.id) +
        " has no absolutely-safe site; it could starve after a failure");
  }
}

bool SimKernel::admit_next(Event& arrival) {
  if (admitted_ == total_jobs_) return false;
  Job job{};
  if (!stream_->next(job)) {
    throw std::runtime_error(
        "SimKernel: job stream ended after " + std::to_string(admitted_) +
        " of " + std::to_string(total_jobs_) + " job(s)");
  }
  job.id = static_cast<JobId>(admitted_);
  validate_admitted(job);
  last_arrival_ = job.arrival;
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(jobs_.size());
    if (jobs_.size() == jobs_.capacity()) reserve_slots(2 * jobs_.size());
    jobs_.emplace_back();
    attempts_.emplace_back();
  }
  if (admitted_ + 1 - retire_frontier_ > slot_of_.size()) grow_slot_ring();
  jobs_[slot] = job;
  attempts_[slot] = Attempt{};
  slot_of_[job.id & slot_mask_] = slot;
  ++admitted_;
  arrival = Event{};
  arrival.time = job.arrival;
  arrival.kind = EventKind::kJobArrival;
  arrival.job = job.id;
  return true;
}

void SimKernel::reserve_slots(std::size_t slots) {
  jobs_.reserve(slots);
  attempts_.reserve(slots);
  // Room for every slot to be parked free at once, so retirement pushes
  // never allocate in the steady-state loop.
  free_slots_.reserve(slots);
}

void SimKernel::grow_slot_ring() {
  // Live ids form the contiguous window [retire_frontier_, admitted_), so
  // any power-of-two capacity >= the window length is collision-free.
  std::vector<std::uint32_t> bigger(slot_of_.size() * 2);
  const std::uint32_t mask = static_cast<std::uint32_t>(bigger.size() - 1);
  for (std::size_t id = retire_frontier_; id < admitted_; ++id) {
    bigger[id & mask] = slot_of_[id & slot_mask_];
  }
  slot_of_.swap(bigger);
  slot_mask_ = mask;
}

void SimKernel::retire_completed() {
  // Retire strictly in id order: a completed job waits in its slot until
  // every lower id has retired, so the accumulator sums in id order
  // however slots were reused (deterministic floating-point sums).
  while (retire_frontier_ < admitted_) {
    const std::uint32_t slot =
        slot_of_[static_cast<JobId>(retire_frontier_) & slot_mask_];
    if (jobs_[slot].state != JobState::kCompleted) break;
    retired_.add(jobs_[slot]);
    free_slots_.push_back(slot);
    ++retire_frontier_;
  }
}

std::string SimKernel::describe_unfinished(Time sim_time) const {
  constexpr std::size_t kMaxNamed = 5;
  std::size_t unfinished = 0;
  std::string ids;
  for (std::size_t id = retire_frontier_; id < total_jobs_; ++id) {
    const JobState state = id < admitted_
                               ? job(static_cast<JobId>(id)).state
                               : JobState::kPending;
    if (state == JobState::kCompleted) continue;
    ++unfinished;
    if (unfinished <= kMaxNamed) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(id);
      ids += state == JobState::kDispatched ? " (dispatched)" : " (pending)";
    }
  }
  std::string text = std::to_string(unfinished) + " of " +
                     std::to_string(total_jobs_) + " job(s) unfinished at " +
                     "sim time " + std::to_string(sim_time) + "; first ids: [" +
                     ids;
  if (unfinished > kMaxNamed) text += ", ...";
  return text + "]";
}

void SimKernel::request_cycle(Time now) {
  if (cycle_scheduled_) return;
  // Smallest integer cycle index whose derived time is strictly after
  // `now`. The float quotient only seeds the search: at an exact multiple,
  // floor(now/interval) + 1 can round to a cycle at (or before) `now`
  // itself, so the index is corrected against the derived times and kept
  // monotone across calls before any event is pushed.
  std::uint64_t index = static_cast<std::uint64_t>(std::max(
                            0.0, std::floor(now / config_.batch_interval))) +
                        1;
  while (index > 1 && static_cast<double>(index - 1) * config_.batch_interval >
                          now) {
    --index;
  }
  while (static_cast<double>(index) * config_.batch_interval <= now) ++index;
  index = std::max(index, next_cycle_index_);
  next_cycle_index_ = index + 1;
  Event cycle;
  cycle.time = static_cast<double>(index) * config_.batch_interval;
  cycle.kind = EventKind::kBatchCycle;
  events_.push(cycle);
  cycle_scheduled_ = true;
}

unsigned SimKernel::revoke_attempt(JobId job_id, Time now) {
  Job& the_job = mutable_job(job_id);
  Attempt& the_attempt = mutable_attempt(job_id);
  if (observer_) observer_->on_revoke(*this, job_id, the_attempt.site, now);
  the_attempt.active = false;  // any queued kJobEnd for this attempt is stale
  --running_;
  the_job.state = JobState::kPending;
  GridSite& site = sites_[the_attempt.site];
  if (the_attempt.window.start < now) {
    site.account_busy(the_job.nodes, now - the_attempt.window.start);
  }
  const unsigned released =
      site.release_after_failure(the_job.nodes, the_attempt.window.end, now);
  pending_.push_back(job_id);
  return released;
}

void SimKernel::run(BatchScheduler& scheduler) {
  if (ran_) throw std::logic_error("SimKernel::run called twice");
  ran_ = true;
  ArrivalProcess arrival;
  SecurityFailureProcess failure;
  BatchCycleProcess batch(scheduler, failure);
  const bool churns = !outages_.empty() || any_churns(churn_);
  SiteChurnProcess churn(std::move(churn_), std::move(outages_),
                         config_.seed);

  arrivals_remaining_ = total_jobs_;
  // Arrival events carry reserved sequence numbers (seq == job id), so
  // injecting them one arrival ahead pops them in the same (time, seq)
  // total order as injecting all of them up front would; dynamic events
  // number from total_jobs_ on.
  events_.reserve_seqs(total_jobs_);
  // Capacity hint: the queue holds O(active) events.
  events_.reserve(std::min<std::size_t>(total_jobs_, 1024) + 64);
  // Start order fixes the FIFO tie-break among the seeded events: the
  // first arrival, then the churn timelines.
  arrival.start(*this);
  if (churns) churn.start(*this);
  if (observer_) observer_->on_run_start(*this);

  // The loop ends when every job has completed, not when the queue drains:
  // site churn keeps future events queued for as long as the simulation
  // could need them.
  Time now = 0.0;
  while (!events_.empty()) {
    if (counters_.completed_jobs == total_jobs_) break;
    const Event event = events_.pop();
    now = event.time;
    // Watchdog checkpoint: batch cycles are the kernel's natural pause
    // points (bounded work between them), so a cancelled/expired token
    // aborts within one cycle without any asynchronous interruption.
    if (config_.cancel != nullptr && event.kind == EventKind::kBatchCycle) {
      config_.cancel->check("simulation batch cycle");
    }
    if (observer_) observer_->on_event(*this, event);
    // No default: a new EventKind must get a handler here (-Wswitch,
    // GS-R06).
    switch (event.kind) {
      case EventKind::kJobArrival:
        arrival.handle(*this, event);
        break;
      case EventKind::kBatchCycle:
        batch.handle(*this, event);
        break;
      case EventKind::kJobEnd:
        failure.handle(*this, event);
        break;
      case EventKind::kSiteDown:
        churn.site_down(*this, event);
        break;
      case EventKind::kSiteUp:
        churn.site_up(*this, event);
        break;
    }
  }

  if (counters_.completed_jobs != total_jobs_) {
    throw std::runtime_error("SimKernel: simulation ended with " +
                             describe_unfinished(now));
  }
  if (observer_) observer_->on_run_end(*this);
}

}  // namespace gridsched::sim
