// Regression suite for the DecodeScratch fitness fast path (PR 2): the
// scratch-based decode must be bit-identical to the retained reference
// implementation across every registry scenario, and its steady state must
// perform zero heap allocations (counted by replacing global new/delete).
#include "core/ga_problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "core/ga_engine.hpp"
#include "core/operators.hpp"
#include "decode_harness.hpp"  // counting allocator + scenario_batch
#include "util/rng.hpp"

namespace gridsched::core {
namespace {

using bench::allocation_count;
using bench::scenario_batch;

static_assert(noexcept(decode_fitness(
    std::declval<const GaProblem&>(), std::declval<const Chromosome&>(),
    std::declval<const FitnessParams&>(), std::declval<DecodeScratch&>())));
static_assert(noexcept(batch_makespan(std::declval<const GaProblem&>(),
                                      std::declval<const Chromosome&>(),
                                      std::declval<DecodeScratch&>())));
static_assert(noexcept(decode_order_into(std::declval<DecodeScratch&>(),
                                         std::declval<const GaProblem&>(),
                                         std::declval<const Chromosome&>())));

TEST(DecodeFastPath, BitIdenticalToReferenceAcrossRegistry) {
  const FitnessParams params{0.6, 2.0};
  for (const std::string& name : exp::scenario_names()) {
    for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
      const auto context = scenario_batch(name, 24, seed);
      const GaProblem problem =
          build_problem(context, security::RiskPolicy::risky());
      if (problem.n_jobs() == 0) continue;
      DecodeScratch scratch;
      scratch.bind(problem);
      util::Rng rng(seed * 977);
      for (int trial = 0; trial < 4; ++trial) {
        const Chromosome chromosome = random_chromosome(problem, rng);
        const double ref_fitness =
            decode_fitness_reference(problem, chromosome, params);
        const double fast_fitness =
            decode_fitness(problem, chromosome, params, scratch);
        EXPECT_EQ(ref_fitness, fast_fitness)
            << name << " seed " << seed << " trial " << trial;
        EXPECT_EQ(batch_makespan_reference(problem, chromosome),
                  batch_makespan(problem, chromosome, scratch))
            << name << " seed " << seed << " trial " << trial;
        const auto ref_order = decode_order_reference(problem, chromosome);
        const auto fast_order = decode_order_into(scratch, problem, chromosome);
        ASSERT_EQ(ref_order.size(), fast_order.size());
        for (std::size_t i = 0; i < ref_order.size(); ++i) {
          EXPECT_EQ(ref_order[i], fast_order[i]) << name << " position " << i;
        }
        // The validating public entry points ride the same fast path.
        EXPECT_EQ(ref_fitness, decode_fitness(problem, chromosome, params));
      }
    }
  }
}

TEST(DecodeFastPath, SteadyStateIsAllocationFree) {
  const auto context = scenario_batch("synth-inconsistent-hihi", 64, 3);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  const FitnessParams params{0.6, 2.0};
  util::Rng rng(17);
  std::vector<Chromosome> chromosomes;
  for (int i = 0; i < 32; ++i) {
    chromosomes.push_back(random_chromosome(problem, rng));
  }
  DecodeScratch scratch;
  scratch.bind(problem);
  decode_fitness(problem, chromosomes[0], params, scratch);  // warm buffers

  const std::uint64_t before = allocation_count();
  double sink = 0.0;
  for (const Chromosome& chromosome : chromosomes) {
    sink += decode_fitness(problem, chromosome, params, scratch);
    sink += batch_makespan(problem, chromosome, scratch);
    sink += static_cast<double>(
        decode_order_into(scratch, problem, chromosome).front());
  }
  EXPECT_EQ(allocation_count(), before) << "fast-path decode allocated";
  EXPECT_GT(sink, 0.0);
}

TEST(DecodeFastPath, ReferenceDecodeAllocatesManyTimesMore) {
  const auto context = scenario_batch("synth-consistent-lolo", 64, 4);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  util::Rng rng(5);
  const Chromosome chromosome = random_chromosome(problem, rng);
  const std::uint64_t before = allocation_count();
  decode_fitness_reference(problem, chromosome, {0.6, 2.0});
  const std::uint64_t reference_allocations = allocation_count() - before;
  // The ISSUE target is >= 5x fewer allocations; the fast path does zero,
  // so the reference must do at least 5 for the ratio to be meaningful.
  EXPECT_GE(reference_allocations, 5u);
}

TEST(DecodeFastPath, RebindingToAnotherProblemIsCorrect) {
  DecodeScratch scratch;
  const FitnessParams params{0.6, 2.0};
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    for (const std::string& name :
         {std::string("synth-consistent-hihi"), std::string("psa")}) {
      const auto context = scenario_batch(name, 16, seed);
      const GaProblem problem =
          build_problem(context, security::RiskPolicy::risky());
      if (problem.n_jobs() == 0) continue;
      scratch.bind(problem);
      util::Rng rng(seed + 99);
      const Chromosome chromosome = random_chromosome(problem, rng);
      EXPECT_EQ(decode_fitness_reference(problem, chromosome, params),
                decode_fitness(problem, chromosome, params, scratch));
    }
  }
}

TEST(DecodeFastPath, CopiesAndIndependentScratchesMatchTheReference) {
  // Nothing caches a problem: a copy owns its own tables, and every scratch
  // only sizes buffers, so any scratch decodes any same-shaped problem.
  const FitnessParams params{0.6, 2.0};
  for (const std::string& name :
       {std::string("synth-inconsistent-hihi"), std::string("nas")}) {
    const auto context = scenario_batch(name, 96, 5);
    auto original = std::make_unique<GaProblem>(
        build_problem(context, security::RiskPolicy::risky()));
    ASSERT_GT(original->n_jobs(), 0u);
    util::Rng rng(21);
    std::vector<Chromosome> chromosomes;
    std::vector<double> reference;
    std::vector<std::vector<std::size_t>> reference_order;
    for (int i = 0; i < 6; ++i) {
      chromosomes.push_back(random_chromosome(*original, rng));
      reference.push_back(
          decode_fitness_reference(*original, chromosomes.back(), params));
      reference_order.push_back(
          decode_order_reference(*original, chromosomes.back()));
    }
    std::array<DecodeScratch, 3> scratches;
    scratches[0].bind(*original);
    const GaProblem copy = *original;
    original.reset();  // the copy must not lean on the original's storage
    scratches[1].bind(copy);
    scratches[2].bind(copy);
    for (std::size_t i = 0; i < chromosomes.size(); ++i) {
      // Interleave the scratches so each decode follows another's.
      for (std::size_t k = 0; k < scratches.size(); ++k) {
        DecodeScratch& scratch = scratches[(i + k) % scratches.size()];
        EXPECT_EQ(reference[i],
                  decode_fitness(copy, chromosomes[i], params, scratch))
            << name << " chromosome " << i << " scratch " << k;
        const auto order = decode_order_into(scratch, copy, chromosomes[i]);
        EXPECT_TRUE(std::equal(order.begin(), order.end(),
                               reference_order[i].begin(),
                               reference_order[i].end()))
            << name << " chromosome " << i << " scratch " << k;
      }
      EXPECT_EQ(reference[i], decode_fitness(copy, chromosomes[i], params));
    }
  }
}

TEST(EvolveMemo, ElitesAreNeverReDecoded) {
  const auto context = scenario_batch("synth-consistent-hihi", 16, 7);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  GaParams params;
  params.population = 30;
  params.generations = 20;
  params.elite_count = 2;
  util::Rng rng(8);
  const GaResult result = evolve(problem, {}, params, rng);
  // Elites carry their fitness: at most population fresh decodes in the
  // initial generation and population - elites per later generation.
  EXPECT_LE(result.evaluations,
            params.population +
                params.generations * (params.population - params.elite_count));
  // Every individual is decoded, memoized, or a carried elite — exactly.
  EXPECT_EQ(result.evaluations + result.memo_hits,
            params.population * (params.generations + 1) -
                params.generations * params.elite_count);
}

TEST(EvolveMemo, MemoizationDoesNotChangeTheResult) {
  // Same seed twice must stay deterministic with memoization and carried
  // elite fitness in play.
  const auto context = scenario_batch("synth-inconsistent-lolo", 12, 9);
  const GaProblem problem =
      build_problem(context, security::RiskPolicy::risky());
  ASSERT_GT(problem.n_jobs(), 0u);
  GaParams params;
  params.population = 24;
  params.generations = 15;
  auto run = [&] {
    util::Rng rng(13);
    return evolve(problem, {}, params, rng);
  };
  const GaResult a = run();
  const GaResult b = run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_per_generation, b.best_per_generation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
}

}  // namespace
}  // namespace gridsched::core
