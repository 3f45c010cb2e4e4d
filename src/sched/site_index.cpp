#include "sched/site_index.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace gridsched::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// std::min / std::max that let a NaN win, so a NaN free time, speed or
/// level makes its subtree's bound NaN (which never prunes) rather than
/// vanishing from the aggregate.
double lo(double a, double b) noexcept { return a < b || a != a ? a : b; }
double hi(double a, double b) noexcept { return a > b || a != a ? a : b; }

[[noreturn]] void throw_bad_node_count() {
  throw std::invalid_argument("SiteIndex: bad node count");
}

[[noreturn]] void throw_bad_profiles() {
  throw std::invalid_argument(
      "SiteIndex: context.avail must hold one profile per site, with the "
      "site's node count");
}

}  // namespace

void SiteIndex::rebuild(const sim::SchedulerContext& context) {
  const std::size_t n = context.sites.size();
  if (context.avail.size() != n) throw_bad_profiles();
  std::size_t total_nodes = 0;
  unsigned max_capacity = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const unsigned nodes = context.avail[s].nodes();
    if (nodes != context.sites[s].nodes) throw_bad_profiles();
    if (!context.site_usable(s)) continue;
    total_nodes += nodes;
    max_capacity = std::max(max_capacity, nodes);
  }
  // Sizing: grows the buffers only past their high-water marks.
  const bool same_sites = n == n_sites_ && !site_.empty();
  n_sites_ = n;
  max_capacity_ = max_capacity;
  classes_ = std::max<std::size_t>(1, std::bit_width(max_capacity));
  first_leaf_ = std::bit_ceil(
      std::max<std::size_t>(1, (n + kLeafSites - 1) / kLeafSites));
  site_.resize(n);
  offset_.resize(n + 1);
  free_.resize(total_nodes);
  position_.resize(n);
  node_.resize(2 * first_leaf_);
  node_free_.resize(classes_ * node_.size());
  fill(context, same_sites);
}

// GS-FASTPATH-BEGIN: per-cycle refill, queries and reservations — zero
// steady-state allocations (gridsched_lint GS-R01 rejects
// stable_sort/inplace_merge/vector/new in this region).
void SiteIndex::fill(const sim::SchedulerContext& context, bool same_sites) {
  const auto& sites = context.sites;
  context_ = &context;
  now_ = context.now;
  raw_etc_ = context.exec.has_matrix();
  speeds_positive_ = std::all_of(sites.begin(), sites.end(),
                                 [](const sim::SiteConfig& site) {
                                   return site.speed > 0.0;
                                 });

  // Order: fastest first on rank-1 models, so the first leaves hold the
  // likely winners; id order otherwise. Sites keep their speeds from cycle
  // to cycle, so the last cycle's order usually still holds.
  const auto faster = [&sites](sim::SiteId a, sim::SiteId b) {
    return sites[a].speed > sites[b].speed ||
           (sites[a].speed == sites[b].speed && a < b);
  };
  if (raw_etc_ || !speeds_positive_) {
    std::iota(site_.begin(), site_.end(), sim::SiteId{0});
  } else if (!same_sites || !std::is_sorted(site_.begin(), site_.end(),
                                            faster)) {
    std::iota(site_.begin(), site_.end(), sim::SiteId{0});
    std::sort(site_.begin(), site_.end(), faster);
  }

  std::size_t offset = 0;
  for (std::size_t pos = 0; pos < n_sites_; ++pos) {
    const sim::SiteId id = site_[pos];
    position_[id] = static_cast<std::uint32_t>(pos);
    offset_[pos] = offset;
    if (!context.site_usable(id)) continue;  // never admissible: no profile
    const auto& times = context.avail[id].free_times();
    std::copy(times.begin(), times.end(), free_.data() + offset);
    offset += times.size();
  }
  offset_[n_sites_] = offset;

  // Leaves, then every inner node bottom-up. A masked-down site is never
  // admissible, so it adds nothing to its leaf's speed or level either.
  for (std::size_t leaf = 0; leaf < first_leaf_; ++leaf) {
    Node node{0.0, -kInf};
    const std::size_t end = std::min(n_sites_, (leaf + 1) * kLeafSites);
    for (std::size_t pos = leaf * kLeafSites; pos < end; ++pos) {
      if (offset_[pos + 1] == offset_[pos]) continue;  // down
      const sim::SiteConfig& site = sites[site_[pos]];
      node.speed = hi(node.speed, site.speed);
      node.security = hi(node.security, site.security);
    }
    node_[first_leaf_ + leaf] = node;
    refresh_leaf(leaf, all_classes());
  }
  for (std::size_t i = first_leaf_ - 1; i >= 1; --i) {
    const Node& left = node_[2 * i];
    const Node& right = node_[2 * i + 1];
    node_[i] = {hi(left.speed, right.speed),
                hi(left.security, right.security)};
    pull(i, all_classes());
  }
}

std::uint64_t SiteIndex::refresh_leaf(std::size_t leaf,
                                      std::uint64_t classes) noexcept {
  const std::size_t stride = node_.size();
  const std::size_t end = std::min(n_sites_, (leaf + 1) * kLeafSites);
  std::uint64_t changed = 0;
  for (; classes != 0; classes &= classes - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(classes));
    const std::size_t need = std::size_t{1} << c;
    double value = kInf;
    for (std::size_t pos = leaf * kLeafSites; pos < end; ++pos) {
      if (offset_[pos + 1] - offset_[pos] >= need) {
        value = lo(value, free_[offset_[pos] + need - 1]);
      }
    }
    double& slot = node_free_[c * stride + first_leaf_ + leaf];
    if (!(value == slot)) changed |= std::uint64_t{1} << c;  // NaN: changed
    slot = value;
  }
  return changed;
}

std::uint64_t SiteIndex::pull(std::size_t node,
                              std::uint64_t classes) noexcept {
  const std::size_t stride = node_.size();
  std::uint64_t changed = 0;
  for (; classes != 0; classes &= classes - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(classes));
    double* level = node_free_.data() + c * stride;
    const double value = lo(level[2 * node], level[2 * node + 1]);
    if (!(value == level[node])) changed |= std::uint64_t{1} << c;
    level[node] = value;
  }
  return changed;
}

SiteIndex::Pick SiteIndex::best(const sim::BatchJob& job,
                                const RiskFilter::JobFilter& filter,
                                Score kind) const {
  if (!may_fit(job, filter)) return {};
  switch (kind) {
    case Score::kCompletion:
      return walk<Score::kCompletion, false>(job, filter);
    case Score::kExec:
      return walk<Score::kExec, false>(job, filter);
    case Score::kStart:
      return walk<Score::kStart, false>(job, filter);
  }
  return {};
}

SiteIndex::Pick SiteIndex::best_two(const sim::BatchJob& job,
                                    const RiskFilter::JobFilter& filter)
    const {
  if (!may_fit(job, filter)) return {};
  return walk<Score::kCompletion, true>(job, filter);
}

template <SiteIndex::Score kKind, bool kTop2>
SiteIndex::Pick SiteIndex::walk(const sim::BatchJob& job,
                                const RiskFilter::JobFilter& filter) const {
  const sim::SchedulerContext& context = *context_;
  const unsigned k = job.nodes;  // 1 <= k <= max_capacity_
  // Class floor(log2 k): every site that fits k nodes has at least 2^c, and
  // its (2^c)-th free time is at most its k-th (profiles are sorted).
  const std::size_t c =
      std::min<std::size_t>(std::bit_width(k) - 1, classes_ - 1);
  const double* node_free = node_free_.data() + c * node_.size();
  // The exec floor of a subtree: work / its fastest speed is <= work /
  // speed of each of its sites (work >= 0, speeds > 0). Raw ETC gives no
  // floor but 0 (cells are > 0); otherwise -inf, which never prunes.
  const bool rank1_floor = !raw_etc_ && speeds_positive_ && job.work >= 0.0;
  const double no_floor = raw_etc_ ? 0.0 : -kInf;

  Pick pick;
  std::size_t stack[2 * std::numeric_limits<std::size_t>::digits];
  std::size_t top = 0;
  stack[top++] = 1;
  while (top > 0) {
    const std::size_t i = stack[--top];
    const Node& node = node_[i];
    if (filter.rejects_up_to(node.security)) continue;
    double bound = 0.0;
    if constexpr (kKind != Score::kExec) {
      bound = std::max(now_, node_free[i]);
    }
    if constexpr (kKind != Score::kStart) {
      // NOLINTNEXTLINE(GS-R03): a subtree bound, not an exec time
      bound += rank1_floor ? job.work / node.speed : no_floor;
    }
    // Strict: a site whose value equals the limit can still win on its id.
    // No value beats +inf, and a NaN bound prunes nothing.
    const double limit = kTop2 ? pick.second : pick.best;
    if (bound > limit || bound == kInf) continue;
    if (i < first_leaf_) {
      stack[top++] = 2 * i + 1;
      stack[top++] = 2 * i;  // left first: leaf order
      continue;
    }
    const std::size_t leaf = i - first_leaf_;
    const std::size_t end = std::min(n_sites_, (leaf + 1) * kLeafSites);
    for (std::size_t pos = leaf * kLeafSites; pos < end; ++pos) {
      const sim::SiteId site = site_[pos];
      if (!filter.admits(context, site)) continue;
      double value = 0.0;
      if constexpr (kKind != Score::kExec) {
        value = std::max(now_, free_[offset_[pos] + k - 1]);
      }
      if constexpr (kKind != Score::kStart) {
        value += context.exec_time(job, site);
      }
      // A scan with strict `<` from +inf never takes +inf or NaN.
      if (!(value < kInf)) continue;
      if (value < pick.best || (value == pick.best && site < pick.site)) {
        pick.second = pick.best;
        pick.best = value;
        pick.site = site;
      } else if (kTop2 && value < pick.second) {
        pick.second = value;
      }
    }
  }
  if constexpr (!kTop2) pick.second = kInf;
  return pick;
}

sim::NodeAvailability::Window SiteIndex::reserve(sim::SiteId site, unsigned k,
                                                 double exec, sim::Time now) {
  const std::size_t pos = position_[site];
  sim::Time* times = free_.data() + offset_[pos];
  const std::size_t count = offset_[pos + 1] - offset_[pos];
  if (k == 0 || k > count) throw_bad_node_count();
  // A reservation of exec >= 0 only raises the site's free times, so a
  // class whose leaf minimum is strictly below the site's old value keeps
  // it; only the others (and every class, for any other exec) need a
  // recompute.
  const std::size_t leaf = pos / kLeafSites;
  std::uint64_t stale = all_classes();
  if (exec >= 0.0) {
    stale = 0;
    const double* leaf_free = node_free_.data() + first_leaf_ + leaf;
    for (std::size_t c = 0; c < classes_ && (std::size_t{1} << c) <= count;
         ++c) {
      if (!(leaf_free[c * node_.size()] < times[(std::size_t{1} << c) - 1])) {
        stale |= std::uint64_t{1} << c;
      }
    }
  }
  // NodeAvailability::reserve, step for step.
  const sim::Time start = std::max(now, times[k - 1]);
  const sim::NodeAvailability::Window window{start, start + exec};
  std::fill(times, times + k, window.end);
  sim::Time* insert_at =
      std::lower_bound(times + k, times + count, window.end);
  std::rotate(times, times + k, insert_at);

  std::uint64_t changed = refresh_leaf(leaf, stale);
  for (std::size_t i = (first_leaf_ + leaf) / 2; i >= 1 && changed != 0;
       i /= 2) {
    changed = pull(i, changed);
  }
  return window;
}
// GS-FASTPATH-END

bool SiteIndex::may_fit(const sim::BatchJob& job,
                        const RiskFilter::JobFilter& filter) const {
  if (job.nodes == 0) {
    // NodeAvailability::earliest_start rejects k == 0 on the first
    // admissible site a scan reaches.
    for (std::size_t s = 0; s < n_sites_; ++s) {
      if (filter.admits(*context_, s)) throw_bad_node_count();
    }
    return false;
  }
  return job.nodes <= max_capacity_;  // else no site that is up fits
}

}  // namespace gridsched::sched
