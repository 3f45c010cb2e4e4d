// Retained pre-fast-path decode (PR 2): fresh decode-order vector,
// comparator-driven stable_sort, deep-copied availability profiles, and
// NodeAvailability::reserve per placement. Kept as the golden baseline the
// DecodeScratch fast path must match bit for bit (tests/
// core_decode_fastpath_test.cpp) and as the speedup reference for
// bench/bench_decode.cpp. Not used on any hot path.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/ga_problem.hpp"

namespace gridsched::core {

std::vector<std::size_t> decode_order_reference(const GaProblem& problem,
                                                const Chromosome& chromosome) {
  std::vector<std::size_t> order(chromosome.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.exec_at(a, chromosome[a]) <
                            problem.exec_at(b, chromosome[b]);
                   });
  return order;
}

namespace {

template <typename Consume>
void decode_reference(const GaProblem& problem, const Chromosome& chromosome,
                      double risk_penalty, Consume&& consume) {
  if (chromosome.size() != problem.n_jobs()) {
    throw std::invalid_argument("decode: chromosome length mismatch");
  }
  std::vector<sim::NodeAvailability> avail = problem.context.avail;
  for (const std::size_t j : decode_order_reference(problem, chromosome)) {
    const sim::SiteId s = chromosome[j];
    const double exec = problem.exec_at(j, s);
    const auto window = avail[s].reserve(problem.context.jobs[j].nodes, exec,
                                         problem.context.now);
    consume(j, window.end + risk_penalty * problem.pfail_at(j, s) * exec);
  }
}

}  // namespace

double decode_fitness_reference(const GaProblem& problem,
                                const Chromosome& chromosome,
                                const FitnessParams& params) {
  double worst = problem.context.now;
  double sum = 0.0;
  decode_reference(problem, chromosome, params.risk_penalty_weight,
                   [&](std::size_t, double expected) {
                     worst = std::max(worst, expected);
                     sum += expected - problem.context.now;
                   });
  const double mean =
      chromosome.empty() ? 0.0 : sum / static_cast<double>(chromosome.size());
  return worst + params.flowtime_weight * mean;
}

double batch_makespan_reference(const GaProblem& problem,
                                const Chromosome& chromosome) {
  double makespan = problem.context.now;
  decode_reference(problem, chromosome, 0.0,
                   [&](std::size_t, double completion) {
                     makespan = std::max(makespan, completion);
                   });
  return makespan;
}

}  // namespace gridsched::core
