// Periodic batch-scheduling handler (the paper's Fig. 1 online model):
// every kBatchCycle it snapshots the kernel state into a SchedulerContext
// (pending batch, committed availability profiles, site mask), invokes the
// BatchScheduler, validates the returned assignments against the protocol
// (range, duplicates, node fit, fail-stop rule, site mask) and hands each
// accepted placement to SecurityFailureProcess::dispatch.
#pragma once

#include "sim/kernel.hpp"
#include "sim/process/security_failure_process.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::sim {

class BatchCycleProcess final {
 public:
  /// `scheduler` and `failure` must outlive the kernel run.
  BatchCycleProcess(BatchScheduler& scheduler, SecurityFailureProcess& failure)
      : scheduler_(scheduler), failure_(failure) {}

  void handle(SimKernel& kernel, const Event& event);

 private:
  void run_cycle(SimKernel& kernel, Time now);

  BatchScheduler& scheduler_;
  SecurityFailureProcess& failure_;
  std::size_t idle_cycles_ = 0;
  // Persistent cycle scratch: the context snapshot, assignment list and
  // per-batch-index marks are rebuilt every cycle but keep their heap
  // buffers, so a steady-state cycle performs no allocations (the
  // invariants tests pin this with a counting allocator).
  SchedulerContext context_;
  std::vector<Assignment> assignments_;
  std::vector<std::uint8_t> assigned_;
  bool context_static_ready_ = false;
};

}  // namespace gridsched::sim
