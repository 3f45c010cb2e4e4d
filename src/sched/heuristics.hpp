// The security-driven heuristic scheduler family (paper Section 2).
//
// Min-Min and Sufferage are the paper's two heuristics; Max-Min, MCT, MET
// and OLB are classic companions from the same literature (Braun et al.,
// paper ref [7]) provided as additional baselines. Each is instantiated
// with a RiskPolicy, yielding e.g. "Min-Min secure" / "Min-Min f-risky" /
// "Min-Min risky".
#pragma once

#include <string>
#include <vector>

#include "sched/risk_filter.hpp"
#include "sched/site_index.hpp"
#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

/// Common state for the list heuristics. Each heuristic writes through
/// schedule_into and makes every per-job pick with one SiteIndex query, so a
/// warm scheduler runs a cycle without heap allocations.
class HeuristicScheduler : public sim::BatchScheduler {
 public:
  explicit HeuristicScheduler(security::RiskPolicy policy)
      : policy_(policy), filter_(policy) {}

  [[nodiscard]] const security::RiskPolicy& policy() const noexcept {
    return policy_;
  }

  [[nodiscard]] std::string name() const override {
    return base_name() + " " + security::to_string(policy_.mode());
  }

 protected:
  [[nodiscard]] virtual std::string base_name() const = 0;

  security::RiskPolicy policy_;
  RiskFilter filter_;
  /// Per-cycle working state, kept across cycles for its capacity: the
  /// site index reservations are previewed against (rebuilt from each
  /// context), and the batch positions the iterative heuristics have yet
  /// to commit.
  SiteIndex index_;
  std::vector<std::size_t> unassigned_;
};

/// Min-Min: repeatedly pick the (job, site) pair with the globally minimum
/// earliest completion time and commit it.
class MinMinScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Min-Min"; }
};

/// Max-Min: like Min-Min but commits the job whose best completion time is
/// the *largest* (large jobs first).
class MaxMinScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Max-Min"; }
};

/// Sufferage: commit the job that would suffer most (largest gap between
/// its second-best and best completion time) to its best site. A job with a
/// single admissible site has infinite sufferage.
class SufferageScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "Sufferage"; }
};

/// MCT: jobs in batch order, each to the admissible site with the minimum
/// completion time.
class MctScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "MCT"; }
};

/// MET: jobs in batch order, each to the admissible site with the minimum
/// raw execution time (ignores queueing; classic load-imbalance baseline).
class MetScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "MET"; }
};

/// OLB: jobs in batch order, each to the admissible site whose required
/// nodes become idle earliest (ignores execution time).
class OlbScheduler final : public HeuristicScheduler {
 public:
  using HeuristicScheduler::HeuristicScheduler;
  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override;

 protected:
  [[nodiscard]] std::string base_name() const override { return "OLB"; }
};

/// The heuristic bodies as they stood before exec times were resolved on
/// the fly: a per-cycle batch x sites exec table of their own, a fresh
/// availability copy, and the per-pair admissible() test. `heuristic` is a
/// registry name (heuristic_names()). Golden references the schedulers
/// above must match assignment for assignment; not used on any hot path.
/// Throws std::invalid_argument for an unknown name.
std::vector<sim::Assignment> reference_schedule(
    const std::string& heuristic, const sim::SchedulerContext& context,
    const security::RiskPolicy& policy);

}  // namespace gridsched::sched
