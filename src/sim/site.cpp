#include "sim/site.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridsched::sim {

NodeAvailability::NodeAvailability(unsigned nodes, Time t0) : free_(nodes, t0) {
  if (nodes == 0)
    throw std::invalid_argument("NodeAvailability: nodes must be > 0");
}

void NodeAvailability::throw_bad_node_count() {
  throw std::invalid_argument(
      "NodeAvailability::earliest_start: bad node count");
}

NodeAvailability::Window NodeAvailability::reserve(unsigned k, double exec,
                                                   Time now) {
  const Window window = preview(k, exec, now);
  // The k earliest-free nodes are all idle by window.start; occupy them.
  for (unsigned i = 0; i < k; ++i) free_[i] = window.end;
  // Restore sorted order. The k changed entries are all equal to
  // window.end, so rotating them as one block to just before the first
  // strictly-larger tail entry yields the same profile a stable merge
  // would — without std::inplace_merge's temporary-buffer allocation
  // (the reserve path must stay heap-free in the steady-state event loop).
  const auto middle = free_.begin() + k;
  const auto insert_at = std::lower_bound(middle, free_.end(), window.end);
  std::rotate(free_.begin(), middle, insert_at);
  return window;
}

unsigned NodeAvailability::release(unsigned k, Time reserved_end,
                                   Time release_at) {
  if (release_at > reserved_end) {
    throw std::invalid_argument(
        "NodeAvailability::release: release_at is late");
  }
  // Entries equal to reserved_end form a contiguous run in the sorted
  // profile; any node re-reserved since has a strictly larger free time.
  unsigned released = 0;
  for (std::size_t i = 0; i < free_.size() && released < k; ++i) {
    if (free_[i] == reserved_end) {
      free_[i] = release_at;
      ++released;
    }
  }
  if (released > 0) std::sort(free_.begin(), free_.end());
  return released;
}

GridSite::GridSite(SiteConfig config)
    : config_(config), avail_(config.nodes, 0.0) {
  if (config_.speed <= 0.0) {
    throw std::invalid_argument("GridSite: speed must be > 0");
  }
}

NodeAvailability::Window GridSite::dispatch(unsigned job_nodes, double exec,
                                            Time now) {
  if (!fits(job_nodes)) {
    throw std::invalid_argument("GridSite::dispatch: job does not fit site");
  }
  ++dispatched_;
  return avail_.reserve(job_nodes, exec, now);
}

unsigned GridSite::release_after_failure(unsigned job_nodes, Time reserved_end,
                                         Time detect_time) {
  return avail_.release(job_nodes, reserved_end, detect_time);
}

void GridSite::account_busy(unsigned job_nodes, double duration) noexcept {
  busy_node_seconds_ += static_cast<double>(job_nodes) * duration;
}

double GridSite::utilization(Time horizon) const noexcept {
  if (horizon <= 0.0) return 0.0;
  const double capacity = static_cast<double>(config_.nodes) * horizon;
  return std::clamp(busy_node_seconds_ / capacity, 0.0, 1.0);
}

}  // namespace gridsched::sim
