// Event-driven simulation kernel: the paper's online model (Fig. 1) as one
// event loop over a fixed event set. SimKernel owns the event queue, the
// clock, deterministic FIFO tie-breaking, the shared run state (job slots,
// sites, attempts, pending queue, counters) and the site-availability
// mask; run() dispatches each of the five EventKinds with one switch to
// one of four handlers (src/sim/process/): job arrivals, periodic batch
// scheduling, security failures with fail-stop rescheduling, and site
// churn (stochastic per-site parameters or a scripted outage list).
//
// Jobs enter one way: through a workload::JobStream cursor, admitted
// lazily one arrival ahead of the clock into a recycled slot table (a job
// vector is wrapped in a MaterializedStream). Each admission is validated
// on its own (positive work and nodes, nonnegative and nondecreasing
// arrival, an absolutely-safe home site). A completed job retires into the
// RetirementAccumulator as soon as every lower id has retired (in-order
// retirement frontier), freeing its slot — resident job state is O(active
// jobs), not O(total), and the accumulator sums in id order, so
// metrics::compute_metrics is independent of how slots were reused
// (ROADMAP "Streaming-kernel invariants").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/retirement.hpp"
#include "security/security.hpp"
#include "sim/event_queue.hpp"
#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/observer.hpp"
#include "sim/scheduling.hpp"
#include "sim/site.hpp"
#include "util/cancel.hpp"
#include "workload/stream.hpp"

namespace gridsched::sim {

/// When a doomed risky run is detected as failed (DESIGN.md S4).
enum class FailureDetection {
  kAtEnd,            ///< after the full execution window
  kUniformFraction,  ///< after U(0,1) of the execution window
  kImmediate,        ///< at launch (IDS flags the job as it starts)
};

struct EngineConfig {
  /// Scheduling-cycle period (seconds). Jobs accumulate between cycles.
  Time batch_interval = 2000.0;
  /// Eq. 1 coefficient used for the *actual* failure draws.
  double lambda = security::kDefaultLambda;
  FailureDetection detection = FailureDetection::kUniformFraction;
  /// Seed for failure draws, detection fractions and churn timelines.
  std::uint64_t seed = 1;
  /// Abort if this many consecutive non-empty batches make no progress.
  std::size_t max_idle_cycles = 10000;
  /// Cooperative cancellation (non-owning; may be null). The kernel polls
  /// the token at every batch-cycle boundary and aborts the run with
  /// util::CancelledError when it was cancelled or its wall-clock
  /// deadline expired — the campaign layer's per-cell watchdog. A null
  /// token costs a single branch per cycle.
  const util::CancelToken* cancel = nullptr;
};

/// Aggregate outcome counters kept by the kernel while it runs; per-job
/// details live in the Job records themselves.
struct EngineCounters {
  std::size_t completed_jobs = 0;
  std::size_t failure_events = 0;     ///< failure detections (attempts)
  std::size_t risky_attempts = 0;     ///< dispatches with P(fail) > 0
  std::size_t batch_invocations =
      0;  ///< scheduler calls with a non-empty batch
  double scheduler_seconds = 0.0;     ///< wall time inside schedule_into()
  /// Node reservation tails reclaimed by failure releases.
  std::size_t released_nodes = 0;
  /// Reserved tails a failure release could NOT reclaim because a later
  /// reservation had already been stacked onto the node (its free time
  /// moved past the stored window end). Not stranded capacity — the tail
  /// is committed to the next job — but surfaced so a zero-node release
  /// is visible instead of silently ignored.
  std::size_t unreleased_nodes = 0;
  // --- site-churn process ---
  std::size_t site_down_events = 0;   ///< kSiteDown occurrences
  std::size_t site_up_events = 0;     ///< kSiteUp occurrences
  /// Attempts revoked because their site went down (per-job counts live in
  /// Job::interruptions).
  std::size_t interrupted_attempts = 0;
  /// Reservation tails reclaimed / not reclaimable by site-down
  /// revocations (same release-by-stored-window accounting as the failure
  /// counters above; an unreleased tail here is a reservation stacked
  /// behind the revoked one on the same node).
  std::size_t churn_released_nodes = 0;
  std::size_t churn_unreleased_nodes = 0;
};

/// The current attempt of a job: the reservation committed at dispatch.
/// `window.end` is the exact stored free time the site must be released
/// against after a failure or revocation (recomputing start + exec would
/// rely on bitwise float equality).
struct Attempt {
  NodeAvailability::Window window;
  double exec = 0.0;
  SiteId site = kInvalidSite;
  /// Serial of this attempt (== Job::attempts at dispatch); kJobEnd events
  /// carry it so ends of revoked attempts are dropped as stale.
  unsigned serial = 0;
  bool active = false;
};

/// The kernel: event queue + clock + shared state + the fixed event set.
/// Construction validates the grid, the config and the churn input; each
/// job is validated as it is admitted during run(). Only the four handlers
/// (src/sim/process/) mutate the run state; the public accessors are
/// read-only.
class SimKernel {
 public:
  /// Pull jobs from `stream` on demand and recycle slots as jobs retire;
  /// resident job state is O(active). Every admission is validated in O(1)
  /// (feasibility via a precomputed best-security-per-node-count table),
  /// and arrivals must be nondecreasing.
  /// `exec_model`: per-(job, site) execution times. A raw ETC matrix (rows
  /// keyed by job id, i.e. stream position) is authoritative; the default
  /// model is the rank-1 work/speed fallback.
  /// `churn`: per-site up/down parameters (entries beyond the site count
  /// are ignored; empty, or all entries with mtbf/mttr <= 0, means no
  /// stochastic churn). `outages`: an explicit outage script, run in the
  /// given order. Throws std::invalid_argument for an outage that is not
  /// 0 <= down < up, names a site the grid lacks, or overlaps another
  /// outage of its site, and for a script given together with churning
  /// parameters.
  SimKernel(std::vector<SiteConfig> sites,
            std::unique_ptr<workload::JobStream> stream,
            EngineConfig config = {}, ExecModel exec_model = {},
            std::vector<SiteChurnParams> churn = {},
            std::vector<SiteOutage> outages = {});

  /// Convenience: admit the jobs of `jobs`, in order, as a
  /// MaterializedStream.
  SimKernel(std::vector<SiteConfig> sites, std::vector<Job> jobs,
            EngineConfig config = {}, ExecModel exec_model = {},
            std::vector<SiteChurnParams> churn = {},
            std::vector<SiteOutage> outages = {})
      : SimKernel(std::move(sites),
                  std::make_unique<workload::MaterializedStream>(
                      std::move(jobs)),
                  config, std::move(exec_model), std::move(churn),
                  std::move(outages)) {}

  /// Run the event loop to completion (all jobs finished) under
  /// `scheduler`, which must outlive the call. Throws on scheduler
  /// protocol violations and if the queue drains with unfinished jobs.
  /// May be called once.
  void run(BatchScheduler& scheduler);

  // --- read-only run state (observers, metrics, diagnostics) ---
  /// The job slot table: live slots, plus recycled slots that hold stale
  /// retired data until reused. Readers address jobs by id via
  /// job()/attempt(); only slot-parallel scans (timeseries busy profile,
  /// churn victim sweep) index this directly, always gated on
  /// Attempt::active.
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const std::vector<GridSite>& sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] const std::vector<Attempt>& attempts() const noexcept {
    return attempts_;
  }
  [[nodiscard]] const std::vector<JobId>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ExecModel& exec_model() const noexcept {
    return exec_model_;
  }

  // --- job identity (id -> slot) ---
  /// Total jobs this run will simulate (the stream's size).
  [[nodiscard]] std::size_t total_jobs() const noexcept { return total_jobs_; }
  /// Job / attempt by id. Valid for live ids only: admitted and not yet
  /// retired.
  [[nodiscard]] const Job& job(JobId id) const noexcept {
    return jobs_[slot_of_[id & slot_mask_]];
  }
  [[nodiscard]] const Attempt& attempt(JobId id) const noexcept {
    return attempts_[slot_of_[id & slot_mask_]];
  }
  /// True once `id` has been folded into the retirement accumulator (its
  /// slot may already belong to another job). Guards stale end events.
  [[nodiscard]] bool is_retired(JobId id) const noexcept {
    return id < retire_frontier_;
  }
  /// Ids retired so far == the in-order retirement frontier.
  [[nodiscard]] std::size_t retired_jobs() const noexcept {
    return retire_frontier_;
  }
  /// Streaming metric sums over retired jobs (all jobs, post-run).
  [[nodiscard]] const metrics::RetirementAccumulator& retirement()
      const noexcept {
    return retired_;
  }
  /// High-water slot count: O(active jobs), which the streaming scale
  /// tests pin.
  [[nodiscard]] std::size_t peak_slots() const noexcept { return jobs_.size(); }

  /// Diagnostic text for runs that end with incomplete jobs: names the
  /// unfinished count, the first few job ids (with their states; jobs not
  /// yet admitted report as pending) and the simulation time. Shared by
  /// the kernel's terminal error and metrics::compute_metrics so both
  /// failure surfaces stay equally actionable.
  [[nodiscard]] std::string describe_unfinished(Time sim_time) const;

  /// max over jobs of finish time (0 before run / for empty workloads).
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }

  // --- site availability mask (maintained by the site-churn handler) ---
  [[nodiscard]] bool site_usable(std::size_t site) const noexcept {
    return site_up_[site] != 0;
  }
  /// The mask as handed to SchedulerContext (1 = usable).
  [[nodiscard]] const std::vector<std::uint8_t>& site_mask() const noexcept {
    return site_up_;
  }

  // --- observation (null observer = zero-cost fast path) ---
  /// Attach a passive observer (nullptr detaches). Observers are
  /// non-owning and must outlive run(). With none attached every notify
  /// point is a single branch on a null pointer, and observed runs must
  /// stay bit-identical to unobserved ones (observers are read-only).
  void set_observer(KernelObserver* observer) noexcept {
    observer_ = observer;
  }

 private:
  // The four event handlers mutate the run state through the private
  // members below; nothing else may.
  friend class ArrivalProcess;
  friend class BatchCycleProcess;
  friend class SecurityFailureProcess;
  friend class SiteChurnProcess;

  [[nodiscard]] Job& mutable_job(JobId id) noexcept {
    return jobs_[slot_of_[id & slot_mask_]];
  }
  [[nodiscard]] Attempt& mutable_attempt(JobId id) noexcept {
    return attempts_[slot_of_[id & slot_mask_]];
  }

  /// Admit the next job from the cursor into a slot and fill `arrival`
  /// with its kJobArrival event; false when exhausted. Throws
  /// std::invalid_argument for a job that fails validation. Called by
  /// ArrivalProcess, one arrival ahead.
  bool admit_next(Event& arrival);

  /// Advance the retirement frontier over completed jobs (in id order),
  /// folding each into the accumulator and freeing its slot. Called after
  /// every completion.
  void retire_completed();

  void observe_finish(Time time) noexcept {
    makespan_ = makespan_ < time ? time : makespan_;
  }

  // --- event machinery ---
  void push_event(Event event) { events_.push(event); }
  /// Push with a reserved sequence number (arrival events use seq == job
  /// id; see EventQueue::reserve_seqs).
  void push_event_reserved(Event event, std::uint64_t seq) {
    events_.push_reserved(event, seq);
  }

  /// Schedule the next batch cycle strictly after `now` if none is queued.
  /// Cycle times derive from an integer cycle index (index *
  /// batch_interval), never from accumulated floats, so a cycle can never
  /// land at or before the current time.
  void request_cycle(Time now);
  /// BatchCycleProcess acknowledges a fired cycle (clears the queued flag).
  void cycle_fired() noexcept { cycle_scheduled_ = false; }

  // --- run-state bookkeeping ---
  [[nodiscard]] bool work_remains() const noexcept {
    return !pending_.empty() || arrivals_remaining_ > 0 || running_ > 0;
  }
  void note_arrival() noexcept { --arrivals_remaining_; }
  void job_started() noexcept { ++running_; }
  void job_stopped() noexcept { --running_; }

  /// Deactivate `job`'s current attempt at `now` and return it to the
  /// pending queue: account the node-seconds actually burned (none for a
  /// reservation whose window had not started), release the reservation
  /// tail against the *stored* window end, and mark the job pending. The
  /// one revocation primitive shared by failure releases and site-down
  /// revocations — their release accounting must never diverge. Returns
  /// the reclaimed node count (the caller bumps its own
  /// released/unreleased counters and requests a cycle).
  unsigned revoke_attempt(JobId job, Time now);

  void set_site_up(std::size_t site, bool up) noexcept {
    site_up_[site] = up ? 1 : 0;
  }

  /// Notification helpers for the handlers (null-checked, inline).
  void notify_dispatch(JobId job, SiteId site,
                       const NodeAvailability::Window& window, double exec,
                       unsigned serial) const {
    if (observer_) observer_->on_dispatch(*this, job, site, window, exec,
                                          serial);
  }
  void notify_job_complete(JobId job, SiteId site, Time time) const {
    if (observer_) observer_->on_job_complete(*this, job, site, time);
  }
  void notify_attempt_failure(JobId job, SiteId site, Time time) const {
    if (observer_) observer_->on_attempt_failure(*this, job, site, time);
  }
  void notify_cycle(Time now, std::size_t batch_jobs, std::size_t assigned,
                    double scheduler_wall_seconds) const {
    if (observer_) {
      observer_->on_cycle(*this, now, batch_jobs, assigned,
                          scheduler_wall_seconds);
    }
  }

  void validate_admitted(const Job& job) const;
  void reserve_slots(std::size_t slots);
  void grow_slot_ring();

  std::vector<GridSite> sites_;
  std::vector<Job> jobs_;  ///< slot table
  EngineConfig config_;
  ExecModel exec_model_;

  EventQueue events_;
  std::vector<JobId> pending_;
  std::vector<Attempt> attempts_;  ///< per slot, current attempt
  std::vector<std::uint8_t> site_up_;
  EngineCounters counters_;
  Time makespan_ = 0.0;
  std::size_t arrivals_remaining_ = 0;
  std::size_t running_ = 0;
  bool cycle_scheduled_ = false;
  /// 1 + index of the last scheduled batch cycle (see request_cycle).
  std::uint64_t next_cycle_index_ = 0;
  KernelObserver* observer_ = nullptr;
  bool ran_ = false;

  // --- job identity / admission state ---
  std::unique_ptr<workload::JobStream> stream_;
  std::size_t total_jobs_ = 0;
  std::size_t admitted_ = 0;        ///< ids [0, admitted_) hold a slot
  std::size_t retire_frontier_ = 0; ///< ids [0, frontier) are retired
  Time last_arrival_ = 0.0;         ///< sorted-stream admission guard
  /// id -> slot ring (power-of-two capacity >= live-id window).
  std::vector<std::uint32_t> slot_of_;
  std::uint32_t slot_mask_ = 0;
  std::vector<std::uint32_t> free_slots_;  ///< recycled slots
  /// Per-admission feasibility table: best_security_[k] = max security
  /// level over sites with >= k nodes (-1 when no site fits k).
  std::vector<double> best_security_;
  metrics::RetirementAccumulator retired_;

  // --- churn input, handed to the site-churn handler by run() ---
  std::vector<SiteChurnParams> churn_;
  std::vector<SiteOutage> outages_;
};

}  // namespace gridsched::sim
