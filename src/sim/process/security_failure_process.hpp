// Security-failure handler (paper Eq. 1 + fail-stop rescheduling): turns a
// validated placement into a reservation plus a kJobEnd event (success at
// the window end, or a failure detection inside it), and handles the ends —
// completing jobs or releasing the failed reservation's tail and re-queuing
// the job as a secure_only retry.
//
// RNG contract (common random numbers, DESIGN.md §5.5): the failure draw
// for (job, attempt) is a pure hash of (config seed, job id, attempt
// number), independent of everything the scheduler did before, so
// identical placements fail identically under every algorithm. The handler
// is therefore stateless.
#pragma once

#include "sim/kernel.hpp"

namespace gridsched::sim {

class SecurityFailureProcess final {
 public:
  /// Reserve `site` for `job` no earlier than `now`, draw the failure
  /// outcome, push the end event.
  void dispatch(SimKernel& kernel, JobId job, SiteId site, Time now);

  /// Complete the job, or release the failed attempt and re-queue it.
  void handle(SimKernel& kernel, const Event& event);
};

}  // namespace gridsched::sim
