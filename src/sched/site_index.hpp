// Branch-and-bound site index for the list heuristics: every heuristic's
// per-job pick (the admissible site with the smallest completion, exec or
// start time) is one query against a segment tree over the cycle's sites,
// which skips every subtree whose lower bound cannot beat the best site
// found so far.
//
// Exactness. A query returns the site a full id-order scan with strict `<`
// would: the minimum value, the lowest site id on a tie, and (best_two) the
// second smallest value of the multiset. The subtree bounds use the same
// double expressions as the scored values — the start std::max(now,
// free[k-1]) and the rank-1 exec work / speed — over a subtree's minimum
// free time and maximum speed. Rounding to nearest is monotone, so a bound
// is <= every value in its subtree exactly, and only a bound strictly above
// the current best (or +inf, which no value can beat) prunes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/risk_filter.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sched {

class SiteIndex {
 public:
  /// Sites per leaf. Narrower leaves prune more but cost tree memory. On
  /// the 1000-site synth-stream-hi grid, leaves of 2 ran MCT about 15%
  /// faster end to end than leaves of 8, but their tree outweighed the
  /// per-site profile copies the index replaced and raised peak RSS; 8
  /// keeps it at the former level.
  static constexpr std::size_t kLeafSites = 8;

  /// The value a pick minimises: completion (MCT, Min-Min, Max-Min,
  /// Sufferage), raw exec time (MET) or start time (OLB).
  enum class Score { kCompletion, kExec, kStart };

  struct Pick {
    sim::SiteId site = sim::kInvalidSite;  ///< kInvalidSite: none admissible
    double best = std::numeric_limits<double>::infinity();
    /// Runner-up value; filled by best_two only (kInf with < 2 sites).
    double second = std::numeric_limits<double>::infinity();
  };

  /// Re-reads `context`'s sites, mask and availability profiles. The
  /// context must outlive every later query and reserve until the next
  /// rebuild. Buffers keep their capacity, so a warm index rebuilds
  /// without heap allocations. Throws std::invalid_argument when
  /// `context.avail` does not give each site a profile of its node count.
  void rebuild(const sim::SchedulerContext& context);

  /// The admissible site minimising `kind` for `job`. Throws
  /// std::invalid_argument for a zero-node job with an admissible site, as
  /// NodeAvailability::earliest_start does.
  [[nodiscard]] Pick best(const sim::BatchJob& job,
                          const RiskFilter::JobFilter& filter,
                          Score kind) const;

  /// best(job, filter, Score::kCompletion) plus the runner-up completion.
  [[nodiscard]] Pick best_two(const sim::BatchJob& job,
                              const RiskFilter::JobFilter& filter) const;

  /// NodeAvailability::reserve on `site`'s profile, then refreshes the
  /// site's leaf-to-root path. Throws std::invalid_argument unless
  /// 1 <= k <= the site's node count.
  sim::NodeAvailability::Window reserve(sim::SiteId site, unsigned k,
                                        double exec, sim::Time now);

 private:
  /// A subtree's static aggregates over its sites that are up.
  struct Node {
    double speed;     ///< maximum site speed
    double security;  ///< maximum site security level
  };

  void fill(const sim::SchedulerContext& context, bool same_sites);
  template <Score kKind, bool kTop2>
  Pick walk(const sim::BatchJob& job, const RiskFilter::JobFilter& filter)
      const;
  /// False when no site can take `job`; throws for a zero-node job with an
  /// admissible site.
  bool may_fit(const sim::BatchJob& job,
               const RiskFilter::JobFilter& filter) const;
  /// Recompute the listed node classes (bit c = class c) of one leaf or
  /// inner node; returns the classes whose value changed.
  std::uint64_t refresh_leaf(std::size_t leaf, std::uint64_t classes) noexcept;
  std::uint64_t pull(std::size_t node, std::uint64_t classes) noexcept;
  [[nodiscard]] std::uint64_t all_classes() const noexcept {
    return (std::uint64_t{1} << classes_) - 1;
  }

  const sim::SchedulerContext* context_ = nullptr;
  sim::Time now_ = 0.0;
  /// Exec-time floor mode: raw ETC has no per-subtree floor (0), rank-1
  /// uses work / max speed while every speed is > 0.
  bool raw_etc_ = false;
  bool speeds_positive_ = false;
  std::size_t n_sites_ = 0;
  std::size_t first_leaf_ = 1;  ///< heap index of leaf 0; a power of two
  std::size_t classes_ = 1;     ///< node classes 0..classes_-1 (2^c nodes)
  unsigned max_capacity_ = 0;

  // Per position (sites in index order: fastest first on rank-1 models,
  // site-id order on raw-ETC ones).
  std::vector<sim::SiteId> site_;
  /// Into free_, one past the end last. A site's range holds its node
  /// count of free times, or nothing while it is masked down.
  std::vector<std::size_t> offset_;
  std::vector<sim::Time> free_;          ///< sorted free times, per site
  std::vector<std::uint32_t> position_;  ///< site id -> position

  // Per tree node, heap-ordered (root 1, children 2i and 2i+1).
  std::vector<Node> node_;
  /// Class-major: node_free_[c * node_.size() + i] is the minimum over the
  /// subtree's sites with >= 2^c nodes of their (2^c)-th free time, +inf
  /// when none has that many (or is up).
  std::vector<sim::Time> node_free_;
};

}  // namespace gridsched::sched
