#include "core/ga_problem.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sched/risk_filter.hpp"

namespace gridsched::core {

GaProblem build_problem(const sim::SchedulerContext& context,
                        const security::RiskPolicy& policy) {
  GaProblem problem;
  sim::SchedulerContext& kept = problem.context;
  kept.now = context.now;
  kept.sites = context.sites;
  kept.avail = context.avail;
  kept.site_up = context.site_up;
  kept.exec = context.exec;

  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    if (context.jobs[j].nodes == 0) {
      // A 0-node reservation has always been rejected (previously deep in
      // NodeAvailability::earliest_start); fail fast before the unvalidated
      // decode hot path can see it.
      throw std::invalid_argument("build_problem: job needs >= 1 node");
    }
    // Mask-aware: a churned-down site never enters a domain, so no
    // chromosome — including repaired history matches — can place on it.
    std::vector<sim::SiteId> domain =
        sched::admissible_sites(context, context.jobs[j], policy);
    if (domain.empty()) continue;  // stays pending this round
    kept.jobs.push_back(context.jobs[j]);
    problem.batch_index.push_back(j);
    problem.domains.push_back(std::move(domain));
  }

  // Cells: exec through the context's model where the job fits the site,
  // infinity where it does not.
  const std::size_t n_jobs = problem.n_jobs();
  const std::size_t n_sites = problem.n_sites();
  problem.cells.resize(n_jobs * n_sites);
  problem.nodes.resize(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const sim::BatchJob& job = kept.jobs[j];
    problem.nodes[j] = job.nodes;
    for (std::size_t s = 0; s < n_sites; ++s) {
      GaProblem::Cell& cell = problem.cells[j * n_sites + s];
      cell.exec = job.nodes <= kept.sites[s].nodes
                      ? kept.exec_time(job, s)
                      : std::numeric_limits<double>::infinity();
      cell.pfail = security::failure_probability(
          job.demand, kept.sites[s].security, policy.lambda());
    }
  }

  // Rank the execs once per problem: dense integers whose unsigned order is
  // exactly the doubles' order (equal execs share a rank, and there is no
  // NaN: exec is a model value or infinity). Each decode then sorts narrow
  // integer keys instead of 64-bit double mappings. One sort of (exec, cell)
  // pairs and a walk that steps the rank at each new value: a per-cell
  // binary search over the distinct values cost several times more.
  std::vector<std::pair<double, std::uint32_t>> by_exec(problem.cells.size());
  for (std::size_t i = 0; i < by_exec.size(); ++i) {
    by_exec[i] = {problem.cells[i].exec, static_cast<std::uint32_t>(i)};
  }
  std::sort(by_exec.begin(), by_exec.end());
  std::uint32_t max_rank = 0;
  for (std::size_t i = 0; i < by_exec.size(); ++i) {
    if (i > 0 && by_exec[i].first != by_exec[i - 1].first) ++max_rank;
    problem.cells[by_exec[i].second].rank = max_rank;
  }
  while (problem.rank_bytes < 4 &&
         (max_rank >> (8 * problem.rank_bytes)) != 0) {
    ++problem.rank_bytes;
  }

  problem.offset.resize(n_sites + 1);
  problem.offset[0] = 0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    problem.offset[s + 1] =
        problem.offset[s] + kept.avail[s].free_times().size();
  }
  problem.pristine.reserve(problem.offset.back());
  for (const auto& profile : kept.avail) {
    const auto& times = profile.free_times();
    problem.pristine.insert(problem.pristine.end(), times.begin(),
                            times.end());
  }
  return problem;
}

void DecodeScratch::bind(const GaProblem& problem) {
  const std::size_t n = problem.n_jobs();
  working_.resize(problem.pristine.size());
  sort_a_.reserve(n);
  sort_b_.reserve(n);
  order_.reserve(n);
  exec_gather_.reserve(n);
  pfail_gather_.reserve(n);
}

// GS-FASTPATH-BEGIN: per-decode hot path — zero steady-state
// allocations (ROADMAP "Decode fast-path invariants"; gridsched_lint
// GS-R01 rejects stable_sort/inplace_merge/vector/new in this region).
std::span<const DecodeScratch::SortedGene> DecodeScratch::prepare(
    const GaProblem& problem, const Chromosome& chromosome) noexcept {
  assert(chromosome.size() == problem.n_jobs() &&
         working_.size() == problem.pristine.size() &&
         "DecodeScratch::prepare: bind() the problem first");
  problem_ = &problem;
  std::copy(problem.pristine.begin(), problem.pristine.end(),
            working_.begin());
  const std::size_t n = chromosome.size();
  sort_a_.resize(n);
  exec_gather_.resize(n);
  pfail_gather_.resize(n);
  // Single sequential pass: the per-row cell reads prefetch well here, and
  // the decode loop below then only touches these dense gathers.
  const std::size_t n_sites = problem.n_sites();
  const GaProblem::Cell* cells = problem.cells.data();
  for (std::size_t j = 0; j < n; ++j) {
    const GaProblem::Cell& cell = cells[j * n_sites + chromosome[j]];
    exec_gather_[j] = cell.exec;
    pfail_gather_[j] = cell.pfail;
    sort_a_[j] = (static_cast<std::uint64_t>(cell.rank) << 32) |
                 static_cast<std::uint64_t>(j);
  }
  return sort_genes(n);
}

std::span<const DecodeScratch::SortedGene> DecodeScratch::sort_genes(
    std::size_t n) noexcept {
  // Packed (rank << 32 | index) integers order genes by exec with ties on
  // the original position — exactly stable_sort's order. Below the
  // threshold a plain u64 sort wins.
  constexpr std::size_t kRadixThreshold = 64;
  if (n < kRadixThreshold) {
    std::sort(sort_a_.begin(), sort_a_.end());
    return sort_a_;
  }
  // Stable LSD radix over the rank bytes only (bytes 4..4+rank_bytes of
  // the packed key; the index bytes need no passes — stability plus the
  // ascending initial order already gives the tie order). Trivial digits
  // (all keys share the byte) are skipped.
  const unsigned rank_bytes = problem_->rank_bytes;
  sort_b_.resize(n);
  std::memset(hist_, 0, rank_bytes * sizeof(hist_[0]));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = sort_a_[i];
    for (unsigned d = 0; d < rank_bytes; ++d) {
      ++hist_[d][(key >> (32 + 8 * d)) & 0xffU];
    }
  }
  SortedGene* cur = sort_a_.data();
  SortedGene* nxt = sort_b_.data();
  for (unsigned d = 0; d < rank_bytes; ++d) {
    std::uint32_t* counts = hist_[d];
    bool trivial = false;
    for (unsigned b = 0; b < 256; ++b) {
      if (counts[b] == n) {
        trivial = true;
        break;
      }
      if (counts[b] != 0) break;  // first non-empty bucket decides
    }
    if (trivial) continue;
    std::uint32_t running = 0;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = running;
      running += count;
    }
    const unsigned shift = 32 + 8 * d;
    for (std::size_t i = 0; i < n; ++i) {
      const SortedGene gene = cur[i];
      nxt[counts[(gene >> shift) & 0xffU]++] = gene;
    }
    std::swap(cur, nxt);
  }
  return {cur, n};
}

sim::NodeAvailability::Window DecodeScratch::reserve(sim::SiteId s, unsigned k,
                                                     double exec,
                                                     sim::Time now) noexcept {
  const std::size_t* offset = problem_->offset.data();
  sim::Time* free_times = working_.data() + offset[s];
  const std::size_t n = offset[s + 1] - offset[s];
  assert(k >= 1 && k <= n && "DecodeScratch::reserve: bad node count");
  const sim::Time start = std::max(now, free_times[k - 1]);
  const sim::Time end = start + exec;
  // The k earliest-free nodes become free at `end`. Restore sorted order
  // without inplace_merge (which heap-allocates a temporary buffer on
  // every call): entries in [k, p) are < end and slide down; the k
  // reserved nodes — all equal to `end` — land just before p. The linear
  // scan beats a binary search on these <= O(site nodes) profiles.
  std::size_t p = k;
  while (p < n && free_times[p] < end) ++p;
  std::memmove(free_times, free_times + k, (p - k) * sizeof(sim::Time));
  for (std::size_t i = p - k; i < p; ++i) free_times[i] = end;
  return {start, end};
}
// GS-FASTPATH-END

namespace {

/// One scratch per thread for the validating public entry points, so they
/// ride the same allocation-free path as the engine. Binding only sizes
/// buffers, so each thread that decodes keeps the capacity of the largest
/// problem it has seen (about 20 KB at 512 jobs, plus its free-time arena)
/// until it exits.
DecodeScratch& thread_scratch() {
  thread_local DecodeScratch scratch;
  return scratch;
}

/// Validation for the public (non-scratch) decode entry points. The GA
/// engine validates seeds once in evolve and skips this per evaluation.
/// The tables are checked against the problem's dimensions because a
/// hand-assembled problem may carry any of them, and node fit against the
/// flattened profiles because those are what the arena decode indexes.
void validate_decode_args(const GaProblem& problem,
                          const Chromosome& chromosome) {
  const std::size_t n_jobs = problem.n_jobs();
  const std::size_t n_sites = problem.n_sites();
  if (chromosome.size() != n_jobs) {
    throw std::invalid_argument("decode: chromosome length mismatch");
  }
  bool tables_fit =
      problem.cells.size() == n_jobs * n_sites &&
      problem.nodes.size() == n_jobs && problem.offset.size() == n_sites + 1 &&
      problem.offset[0] == 0 &&
      problem.pristine.size() == problem.offset.back() &&
      problem.rank_bytes >= 1 && problem.rank_bytes <= 4;
  for (std::size_t s = 0; tables_fit && s < n_sites; ++s) {
    tables_fit = problem.offset[s] <= problem.offset[s + 1];
  }
  if (!tables_fit) {
    throw std::invalid_argument("decode: problem tables do not match its size");
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const sim::SiteId s = chromosome[j];
    if (s >= n_sites || problem.nodes[j] == 0 ||
        problem.nodes[j] > problem.offset[s + 1] - problem.offset[s]) {
      throw std::invalid_argument("decode: gene assigns an unusable site");
    }
  }
}

}  // namespace

// GS-FASTPATH-BEGIN: the noexcept scratch-backed entry points the GA
// engine calls per evaluation (the validating overloads between them only
// bind a thread-local scratch — no per-decode heap traffic either).
double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params,
                      DecodeScratch& scratch) noexcept {
  double worst = problem.context.now;
  double sum = 0.0;
  decode_into(scratch, problem, chromosome, params.risk_penalty_weight,
              [&](std::size_t, double expected) {
                worst = std::max(worst, expected);
                sum += expected - problem.context.now;
              });
  const double mean =
      chromosome.empty() ? 0.0 : sum / static_cast<double>(chromosome.size());
  return worst + params.flowtime_weight * mean;
}

double decode_fitness(const GaProblem& problem, const Chromosome& chromosome,
                      const FitnessParams& params) {
  validate_decode_args(problem, chromosome);
  DecodeScratch& scratch = thread_scratch();
  scratch.bind(problem);
  return decode_fitness(problem, chromosome, params, scratch);
}

double batch_makespan(const GaProblem& problem, const Chromosome& chromosome,
                      DecodeScratch& scratch) noexcept {
  double makespan = problem.context.now;
  decode_into(scratch, problem, chromosome, 0.0,
              [&](std::size_t, double completion) {
                makespan = std::max(makespan, completion);
              });
  return makespan;
}

double batch_makespan(const GaProblem& problem, const Chromosome& chromosome) {
  validate_decode_args(problem, chromosome);
  DecodeScratch& scratch = thread_scratch();
  scratch.bind(problem);
  return batch_makespan(problem, chromosome, scratch);
}

std::span<const std::size_t> decode_order_into(
    DecodeScratch& scratch, const GaProblem& problem,
    const Chromosome& chromosome) noexcept {
  const auto sorted = scratch.prepare(problem, chromosome);
  scratch.order_.resize(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    scratch.order_[i] = DecodeScratch::gene_index(sorted[i]);
  }
  return scratch.order_;
}
// GS-FASTPATH-END

bool is_feasible(const GaProblem& problem, const Chromosome& chromosome) {
  if (chromosome.size() != problem.n_jobs()) return false;
  for (std::size_t j = 0; j < chromosome.size(); ++j) {
    const auto& domain = problem.domains[j];
    if (std::find(domain.begin(), domain.end(),
                  chromosome[j]) == domain.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace gridsched::core
