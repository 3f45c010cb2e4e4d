// The GA's view of one scheduling round: the schedulable subset of the
// batch, per-job site domains (risk-filtered), and the tables the decode
// reads. The chromosome encoding is the paper's Fig. 4: an array with one
// site gene per batch job.
//
// build_problem is the only way to a decodable problem. It fills every
// decode table once per batch and nothing mutates them afterwards, so any
// number of DecodeScratch workspaces (one per thread-pool chunk) decode the
// same const problem, and a copy decodes exactly like its original.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "security/security.hpp"
#include "sim/scheduling.hpp"

namespace gridsched::core {

using Chromosome = std::vector<sim::SiteId>;

struct GaProblem {
  /// One jobs x sites entry with everything the decode's gather pass reads,
  /// interleaved so each gene costs one cache line instead of three.
  struct Cell {
    double exec = 0.0;       ///< execution time (infinity: does not fit)
    double pfail = 0.0;      ///< Eq. 1 failure probability
    std::uint32_t rank = 0;  ///< dense rank of `exec` among all cells
  };

  /// The batch's scheduler context with only the GA-schedulable jobs kept:
  /// gene j places `context.jobs[j]`. Sites, committed availability
  /// profiles, site mask and execution model are the batch's own, so the
  /// heuristic population seeds schedule this context directly and see
  /// exactly what the GA does.
  sim::SchedulerContext context;
  std::vector<std::size_t> batch_index;  ///< original indices in the batch
  /// Admissible sites per job (never empty for kept jobs). Domains already
  /// exclude masked-out sites.
  std::vector<std::vector<sim::SiteId>> domains;

  /// Decode tables. Execution times resolve through `context.exec` (raw ETC
  /// cells when the workload carries a matrix, work/speed otherwise).
  std::vector<Cell> cells;          ///< jobs x sites, row-major
  std::vector<unsigned> nodes;      ///< context.jobs[j].nodes
  std::vector<sim::Time> pristine;  ///< committed free times, all sites
  std::vector<std::size_t> offset;  ///< site s: [offset[s], offset[s + 1])
  unsigned rank_bytes = 1;          ///< radix passes the ranks need

  [[nodiscard]] std::size_t n_jobs() const noexcept {
    return context.jobs.size();
  }
  [[nodiscard]] std::size_t n_sites() const noexcept {
    return context.sites.size();
  }
  [[nodiscard]] double exec_at(std::size_t j, std::size_t s) const noexcept {
    return cells[j * n_sites() + s].exec;
  }
  [[nodiscard]] double pfail_at(std::size_t j, std::size_t s) const noexcept {
    return cells[j * n_sites() + s].pfail;
  }
};

/// Reusable decode workspace: per-gene sort keys, a gather of the exec/
/// pfail columns the decode loop touches (dense per-job arrays, so the loop
/// never random-accesses the jobs x sites cells), and a working copy of the
/// problem's flattened free times that each decode resets from
/// `GaProblem::pristine` with one O(total nodes) copy.
///
/// Sorting exploits the problem's exec ranks (order-isomorphic dense
/// integers, ties mapped to equal ranks): each decode sorts small packed
/// (rank << 32 | gene index) integers — a two-pass LSD radix for typical
/// rank widths, std::sort below a size threshold. Both are stable in the
/// gene index and therefore reproduce stable_sort's order exactly. After
/// bind() the steady-state decode path performs zero heap allocations; the
/// GA engine keeps one scratch per thread-pool chunk, so ~20k evaluations
/// per batch reuse the same buffers.
class DecodeScratch {
 public:
  /// Packed sort element: exec rank in the high 32 bits, gene index below.
  using SortedGene = std::uint64_t;

  [[nodiscard]] static constexpr std::uint32_t gene_index(
      SortedGene packed) noexcept {
    return static_cast<std::uint32_t>(packed);
  }

  /// Size every mutable buffer for `problem`'s job count and free-time
  /// arena. Any problem of the same shape (a copy, say) may then be decoded.
  void bind(const GaProblem& problem);

  /// Reset the arena to the problem's committed profiles, gather the
  /// chromosome's exec/pfail columns, and compute the
  /// shortest-execution-first decode order (stable for ties, bit-identical
  /// to decode_order_reference). The span is valid until the next
  /// prepare()/bind(); reserve() and nodes_of() read `problem` until then.
  /// Preconditions (enforced by evolve's seed validation, not re-checked
  /// here): bind(problem) was called and chromosome.size() ==
  /// problem.n_jobs().
  std::span<const SortedGene> prepare(const GaProblem& problem,
                                      const Chromosome& chromosome) noexcept;

  /// Gathered columns for gene j, valid after prepare().
  [[nodiscard]] double exec_of(std::uint32_t j) const noexcept {
    return exec_gather_[j];
  }
  [[nodiscard]] double pfail_of(std::uint32_t j) const noexcept {
    return pfail_gather_[j];
  }
  [[nodiscard]] unsigned nodes_of(std::uint32_t j) const noexcept {
    return problem_->nodes[j];
  }

  /// Arena equivalent of NodeAvailability::reserve on site `s`: occupy the
  /// k earliest-free nodes for `exec` seconds starting no earlier than
  /// `now`, keeping the profile sorted. Requires 1 <= k <= nodes(s).
  sim::NodeAvailability::Window reserve(sim::SiteId s, unsigned k, double exec,
                                        sim::Time now) noexcept;

 private:
  std::span<const SortedGene> sort_genes(std::size_t n) noexcept;

  const GaProblem* problem_ = nullptr;  ///< the last prepare()'s problem
  std::vector<SortedGene> sort_a_;        ///< sort input / radix ping
  std::vector<SortedGene> sort_b_;        ///< radix pong
  std::vector<std::size_t> order_;        ///< decode_order_into output
  std::vector<double> exec_gather_;       ///< exec_at(j, chromosome[j])
  std::vector<double> pfail_gather_;      ///< pfail_at(j, chromosome[j])
  std::vector<sim::Time> working_;        ///< decode-mutable profile copy
  std::uint32_t hist_[4][256];            ///< radix digit histograms

  friend std::span<const std::size_t> decode_order_into(
      DecodeScratch& scratch, const GaProblem& problem,
      const Chromosome& chromosome) noexcept;
};

/// Decode `chromosome` with zero steady-state allocations: reserve
/// shortest-first in the scratch arena and feed each job's expected
/// completion to `consume(job_index, expected_completion)`. This is the hot
/// primitive under decode_fitness/batch_makespan; the chromosome must be
/// feasible (validated once by evolve, not per call).
// GS-FASTPATH-BEGIN: the inlined per-evaluation loop (GS-R01 no-alloc).
template <typename Consume>
void decode_into(DecodeScratch& scratch, const GaProblem& problem,
                 const Chromosome& chromosome, double risk_penalty,
                 Consume&& consume) {
  for (const DecodeScratch::SortedGene packed :
       scratch.prepare(problem, chromosome)) {
    const std::uint32_t j = DecodeScratch::gene_index(packed);
    const double exec = scratch.exec_of(j);
    const auto window = scratch.reserve(chromosome[j], scratch.nodes_of(j),
                                        exec, problem.context.now);
    consume(j, window.end + risk_penalty * scratch.pfail_of(j) * exec);
  }
}
// GS-FASTPATH-END

/// Build the GA subproblem from a scheduler context, with every decode
/// table filled. Jobs whose admissible set under `policy` is empty are
/// dropped (they stay pending in the engine). The fail-stop rule for
/// secure_only jobs is enforced by the admissibility filter regardless of
/// `policy`. A cell's exec is `context.exec_time` where the job fits the
/// site and infinity where it does not; `policy.lambda()` feeds the
/// failure probabilities.
GaProblem build_problem(const sim::SchedulerContext& context,
                        const security::RiskPolicy& policy);

/// Fitness shaping knobs (see decode_fitness).
struct FitnessParams {
  /// Weight of the mean expected completion (flow time) relative to the
  /// batch makespan. 0 = pure makespan, the paper's stated objective; a
  /// small positive weight also serves average response time.
  double flowtime_weight = 0.6;
  /// Weight of the expected rework term p_fail * exec added to each job's
  /// completion. A fail-stop restart costs roughly the wasted half run plus
  /// a re-queue and a full re-execution on a safe site, i.e. ~2x exec.
  double risk_penalty_weight = 2.0;
};

/// Decode a chromosome into a schedule and score it (lower is better).
/// Jobs are reserved shortest-execution-first (the dispatch order the
/// GaScheduler realises). Each job's expected completion is
///   c_j + risk_penalty_weight * pfail_j * exec_j
/// and the fitness is max_j(expected) + flowtime_weight * mean_j(expected
/// - now). Genes must lie in the job's domain. Validates the chromosome and
/// the problem's decode tables, throwing std::invalid_argument on length/
/// site mismatches or tables that do not match the problem's dimensions;
/// the scratch overload below is the unvalidated hot path.
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params);

/// Allocation-free fast path: identical value to the validating overload,
/// bit for bit. `scratch` must be bound to `problem` (or a problem of the
/// same shape) and the chromosome
/// must be feasible (evolve validates seeds once; operators preserve
/// feasibility, so per-evaluation checks are unnecessary).
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params,
                      DecodeScratch& scratch) noexcept;

/// Pure realized batch makespan (absolute latest completion; no risk or
/// flowtime shaping), with the same shortest-first decode order.
double batch_makespan(const GaProblem& problem, const Chromosome& chromosome);

/// Allocation-free fast path for batch_makespan (same contract as the
/// decode_fitness scratch overload).
double batch_makespan(const GaProblem& problem, const Chromosome& chromosome,
                      DecodeScratch& scratch) noexcept;

/// The shortest-execution-first order in which a chromosome's assignments
/// are reserved/dispatched (stable for ties), allocation-free: the returned
/// span aliases the scratch and is valid until its next prepare()/bind().
/// Also resets the scratch arena.
std::span<const std::size_t> decode_order_into(
    DecodeScratch& scratch, const GaProblem& problem,
    const Chromosome& chromosome) noexcept;

/// Retained pre-fast-path implementations (fresh decode-order vector,
/// comparator-driven stable_sort, deep-copied availability profiles).
/// Golden references for tests and the bench_decode speedup baseline — the
/// fast path must stay bit-identical to these.
double decode_fitness_reference(const GaProblem& problem,
                                const Chromosome& chromosome,
                                const FitnessParams& params);
double batch_makespan_reference(const GaProblem& problem,
                                const Chromosome& chromosome);
std::vector<std::size_t> decode_order_reference(const GaProblem& problem,
                                                const Chromosome& chromosome);

/// True iff every gene is a member of the corresponding job's domain.
bool is_feasible(const GaProblem& problem, const Chromosome& chromosome);

}  // namespace gridsched::core
