// Job-arrival handler: injects every workload job at its arrival time and
// queues it for the next batch cycle. Arrival times come from the workload
// itself (the synth generators own the stochastic arrival models), so this
// handler draws no randomness.
#pragma once

#include "sim/kernel.hpp"

namespace gridsched::sim {

class ArrivalProcess final {
 public:
  /// Admit the first job and push its arrival.
  void start(SimKernel& kernel);
  /// Queue the arrived job, admit its successor, request a cycle.
  void handle(SimKernel& kernel, const Event& event);
};

}  // namespace gridsched::sim
