// Differential oracles for the list heuristics: every registry heuristic
// must return the same Assignment list, tie-breaks included, as its
// retained reference body (sched::reference_schedule), and the hoisted
// RiskFilter band must agree with the exact per-pair admissible() test —
// in particular on deficits a few ulps either side of the f-risky
// threshold d* = -log1p(-f) / lambda.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "sched/risk_filter.hpp"
#include "security/security.hpp"
#include "sim/exec_model.hpp"
#include "util/rng.hpp"

namespace gridsched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<security::RiskPolicy> policies(double lambda) {
  return {security::RiskPolicy::secure(lambda),
          security::RiskPolicy::f_risky(0.0, lambda),
          security::RiskPolicy::f_risky(0.5, lambda),
          security::RiskPolicy::f_risky(0.999, lambda),
          security::RiskPolicy::f_risky(1.0, lambda),
          security::RiskPolicy::risky(lambda)};
}

/// A random batch context. Coarse value grids make completion-time ties
/// common, so the tie-breaks are exercised, not just the minima.
sim::SchedulerContext random_context(std::uint64_t index) {
  util::Rng rng =
      util::SeedMix(20050419).mix("sched-differential").mix(index).rng();
  sim::SchedulerContext context;
  context.now = static_cast<double>(rng.uniform_int(0, 40)) * 50.0;
  const std::size_t n_sites = 1 + rng.index(24);
  const std::size_t n_jobs = rng.index(40);
  const bool coarse = rng.bernoulli(0.5);

  for (std::size_t s = 0; s < n_sites; ++s) {
    sim::SiteConfig site;
    site.id = static_cast<sim::SiteId>(s);
    site.nodes = static_cast<unsigned>(1 + rng.index(16));
    site.speed = coarse ? static_cast<double>(1u << rng.index(3))
                        : rng.uniform(0.5, 4.0);
    site.security = coarse ? 0.4 + 0.1 * static_cast<double>(rng.index(7))
                           : rng.uniform(0.4, 1.0);
    sim::NodeAvailability avail(site.nodes, 0.0);
    for (std::size_t r = rng.index(4); r > 0; --r) {
      const auto k = static_cast<unsigned>(1 + rng.index(site.nodes));
      avail.reserve(k, static_cast<double>(rng.uniform_int(1, 60)) * 50.0,
                    0.0);
    }
    context.sites.push_back(site);
    context.avail.push_back(std::move(avail));
  }
  if (rng.bernoulli(0.5)) {
    for (std::size_t s = 0; s < n_sites; ++s) {
      context.site_up.push_back(rng.bernoulli(0.75) ? 1 : 0);
    }
  }

  // Raw-ETC contexts key matrix rows by job id; the batch draws its ids
  // from a larger trace so rows are not simply the batch positions.
  const bool raw_etc = rng.bernoulli(0.5);
  const std::size_t trace_jobs = 2 * n_jobs + 1;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(raw_etc ? rng.index(trace_jobs) : j);
    job.work = coarse ? static_cast<double>(rng.uniform_int(1, 8)) * 100.0
                      : rng.uniform(10.0, 5000.0);
    job.nodes = static_cast<unsigned>(1 + rng.index(20));  // some never fit
    job.demand = coarse ? 0.6 + 0.1 * static_cast<double>(rng.index(4))
                        : rng.uniform(0.6, 0.9);
    job.secure_only = rng.bernoulli(0.2);
    context.jobs.push_back(job);
  }
  if (raw_etc) {
    std::vector<double> cells(trace_jobs * n_sites);
    for (double& cell : cells) {
      cell = coarse ? static_cast<double>(rng.uniform_int(1, 8)) * 100.0
                    : rng.uniform(1.0, 3000.0);
    }
    context.exec = sim::ExecModel(trace_jobs, n_sites, std::move(cells));
  }
  return context;
}

/// A batch context on a 200-1500-site grid, deep enough for a SiteIndex
/// tree of several levels. Coarse grids (speeds 0.625/1.25/2.5, free times
/// and work on multiples that those speeds divide) put equal completion
/// times in different leaves, including a faster site at a higher id than
/// a slower one it ties with. Near grids draw work at random over speeds
/// 0.9 and 2.9, half of them nudged one ulp up: the nudged site often ties
/// the plain one at a higher id, and work * (1 / speed) often rounds above
/// work / speed there (both speeds' reciprocals round up), so a bound that
/// took that extra rounding would prune past the tie. Node counts and
/// requests are mostly not powers of two, some requests exceed every site,
/// some contexts mask every site down, and some secure_only jobs demand
/// levels few sites reach.
sim::SchedulerContext large_context(std::uint64_t index) {
  util::Rng rng =
      util::SeedMix(20050419).mix("sched-differential-large").mix(index).rng();
  sim::SchedulerContext context;
  context.now = static_cast<double>(rng.uniform_int(0, 20)) * 50.0;
  const std::size_t n_sites = 200 + rng.index(1301);
  const std::size_t n_jobs = 1 + rng.index(24);
  const std::size_t grid = index % 3;  // 0 fine, 1 coarse, 2 near
  const bool coarse = grid != 0;
  const bool all_down = index % 7 == 6;
  static constexpr double kCoarseSpeeds[] = {0.625, 1.25, 2.5};
  static constexpr double kNearSpeeds[] = {0.9, 2.9};

  for (std::size_t s = 0; s < n_sites; ++s) {
    sim::SiteConfig site;
    site.id = static_cast<sim::SiteId>(s);
    site.nodes = static_cast<unsigned>(1 + rng.index(24));
    if (grid == 0) {
      site.speed = rng.uniform(0.5, 4.0);
    } else if (grid == 1) {
      site.speed = kCoarseSpeeds[rng.index(3)];
    } else {
      site.speed = kNearSpeeds[rng.index(2)];
      if (rng.bernoulli(0.5)) site.speed = std::nextafter(site.speed, kInf);
    }
    site.security = coarse ? 0.4 + 0.1 * static_cast<double>(rng.index(7))
                           : rng.uniform(0.4, 1.0);
    sim::NodeAvailability avail(site.nodes, 0.0);
    for (std::size_t r = rng.index(4); r > 0; --r) {
      const auto k = static_cast<unsigned>(1 + rng.index(site.nodes));
      avail.reserve(k,
                    coarse ? static_cast<double>(rng.uniform_int(1, 30)) * 50.0
                           : rng.uniform(1.0, 3000.0),
                    0.0);
    }
    context.sites.push_back(site);
    context.avail.push_back(std::move(avail));
  }
  if (all_down || rng.bernoulli(0.5)) {
    for (std::size_t s = 0; s < n_sites; ++s) {
      context.site_up.push_back(!all_down && rng.bernoulli(0.75) ? 1 : 0);
    }
  }

  const bool raw_etc = index % 2 == 1;  // every grid with both models
  const std::size_t trace_jobs = 2 * n_jobs + 1;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    sim::BatchJob job;
    job.id = static_cast<sim::JobId>(raw_etc ? rng.index(trace_jobs) : j);
    job.work = grid == 1 ? static_cast<double>(rng.uniform_int(1, 16)) * 75.0
                         : rng.uniform(10.0, 5000.0);
    job.nodes = static_cast<unsigned>(1 + rng.index(30));  // some never fit
    job.demand = coarse ? 0.6 + 0.1 * static_cast<double>(rng.index(4))
                        : rng.uniform(0.6, 0.9);
    job.secure_only = rng.bernoulli(0.2);
    if (rng.bernoulli(0.15)) {  // few sites are this safe
      job.demand = coarse ? 1.0 : rng.uniform(0.95, 1.0);
      job.secure_only = true;
    }
    context.jobs.push_back(job);
  }
  if (raw_etc) {
    std::vector<double> cells(trace_jobs * n_sites);
    for (double& cell : cells) {
      cell = coarse ? static_cast<double>(rng.uniform_int(1, 16)) * 50.0
                    : rng.uniform(1.0, 3000.0);
    }
    context.exec = sim::ExecModel(trace_jobs, n_sites, std::move(cells));
  }
  return context;
}

void expect_same(const std::vector<sim::Assignment>& expected,
                 const std::vector<sim::Assignment>& actual,
                 const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].job_index, actual[i].job_index)
        << label << " at assignment " << i;
    EXPECT_EQ(expected[i].site, actual[i].site)
        << label << " at assignment " << i;
  }
}

/// Every heuristic x policy against reference_schedule on `contexts`;
/// returns the number of assignments compared.
std::size_t expect_match_reference(
    const std::vector<sim::SchedulerContext>& contexts) {
  std::size_t assignments = 0;
  for (const double lambda : {2.5, 0.7}) {
    for (const security::RiskPolicy& policy : policies(lambda)) {
      for (const std::string& name : heuristic_names()) {
        // One scheduler per (heuristic, policy) across every context, so
        // the persistent buffers are reused at changing shapes.
        const std::unique_ptr<sim::BatchScheduler> scheduler =
            make_heuristic(name, policy);
        std::vector<sim::Assignment> into;
        for (std::size_t i = 0; i < contexts.size(); ++i) {
          const std::string label =
              scheduler->name() + " f=" + std::to_string(policy.f()) +
              " lambda=" + std::to_string(lambda) + " context " +
              std::to_string(i);
          const std::vector<sim::Assignment> expected =
              reference_schedule(name, contexts[i], policy);
          expect_same(expected, scheduler->schedule(contexts[i]), label);
          scheduler->schedule_into(contexts[i], into);
          expect_same(expected, into, label + " (schedule_into)");
          assignments += expected.size();
        }
      }
    }
  }
  return assignments;
}

TEST(SchedDifferential, HeuristicsMatchReferenceBodies) {
  constexpr std::uint64_t kContexts = 300;
  std::vector<sim::SchedulerContext> contexts;
  for (std::uint64_t i = 0; i < kContexts; ++i) {
    contexts.push_back(random_context(i));
  }
  // The contexts are not degenerate.
  EXPECT_GT(expect_match_reference(contexts), 10000u);
}

TEST(SchedDifferential, HeuristicsMatchReferenceBodiesOnLargeGrids) {
  constexpr std::uint64_t kContexts = 24;
  std::vector<sim::SchedulerContext> contexts;
  for (std::uint64_t i = 0; i < kContexts; ++i) {
    contexts.push_back(large_context(i));
  }
  EXPECT_GT(expect_match_reference(contexts), 2000u);
}

TEST(SchedDifferential, ZeroNodeJobsThrowWhereASiteIsAdmissible) {
  for (sim::SchedulerContext context : {random_context(1), large_context(0)}) {
    context.site_up.clear();  // every site up: the job is admissible
    context.jobs.resize(1);
    context.jobs[0].id = 0;  // a raw-ETC matrix has a row 0
    context.jobs[0].nodes = 0;
    context.jobs[0].secure_only = false;
    const security::RiskPolicy policy = security::RiskPolicy::risky();
    for (const std::string& name : heuristic_names()) {
      EXPECT_THROW(reference_schedule(name, context, policy),
                   std::invalid_argument)
          << name;
      EXPECT_THROW(make_heuristic(name, policy)->schedule(context),
                   std::invalid_argument)
          << name;
    }
    // With every site masked down nothing is admissible: no throw, and
    // the job stays pending.
    context.site_up.assign(context.sites.size(), 0);
    for (const std::string& name : heuristic_names()) {
      EXPECT_TRUE(reference_schedule(name, context, policy).empty()) << name;
      EXPECT_TRUE(make_heuristic(name, policy)->schedule(context).empty())
          << name;
    }
  }
}

TEST(SchedDifferential, ProfilesThatDoNotMatchTheSitesAreRejected) {
  sim::SchedulerContext context = random_context(2);
  context.avail.pop_back();  // one site without a profile
  for (const std::string& name : heuristic_names()) {
    EXPECT_THROW(
        make_heuristic(name, security::RiskPolicy::risky())->schedule(context),
        std::invalid_argument)
        << name;
  }
  context = random_context(2);
  context.avail[0] = sim::NodeAvailability(context.sites[0].nodes + 1, 0.0);
  EXPECT_THROW(
      make_heuristic("mct", security::RiskPolicy::risky())->schedule(context),
      std::invalid_argument);
}

TEST(SchedDifferential, ReferenceRejectsUnknownHeuristic) {
  EXPECT_THROW(reference_schedule("no-such", random_context(0),
                                  security::RiskPolicy::risky()),
               std::invalid_argument);
}

// ------------------------------------------------- band vs admissible ---

/// Single-site context with level `sl` and a job of demand `sd`.
struct Probe {
  sim::SchedulerContext context;
  sim::BatchJob job;

  Probe() {
    context.sites.push_back({0, 4, 1.0, 1.0});
    context.avail.emplace_back(4, 0.0);
    job.work = 10.0;
  }
  void set(double sd, double sl, bool secure_only) {
    job.demand = sd;
    job.secure_only = secure_only;
    context.sites[0].security = sl;
  }
};

/// Site levels placed around the f-risky threshold sl* = sd - d*: every
/// value within 64 ulps either side, and relative offsets 2^-e of d* and
/// of 1 in both directions (which cross the band's own edges).
std::vector<double> levels_around(double sd, double d_star) {
  std::vector<double> levels;
  const double center = sd - d_star;
  double up = center;
  double down = center;
  levels.push_back(center);
  for (int k = 0; k < 64; ++k) {
    up = std::nextafter(up, kInf);
    down = std::nextafter(down, -kInf);
    levels.push_back(up);
    levels.push_back(down);
  }
  for (int e = 1; e <= 60; ++e) {
    const double rel = std::ldexp(1.0, -e);
    for (const double delta : {d_star * rel, rel}) {
      for (const double sl : {center + delta, center - delta}) {
        levels.push_back(sl);
        levels.push_back(std::nextafter(sl, kInf));
        levels.push_back(std::nextafter(sl, -kInf));
      }
    }
  }
  levels.push_back(sd);
  levels.push_back(std::nextafter(sd, kInf));
  levels.push_back(std::nextafter(sd, -kInf));
  return levels;
}

TEST(RiskFilterBand, MatchesAdmissibleAroundTheThreshold) {
  const std::vector<double> fs = {0.0,  1e-300, 1e-15,  1e-12, 9.094947e-13,
                                  0.25, 0.5,    0.999,  1.0 - 1e-15,
                                  1.0,  1.5};
  const std::vector<double> lambdas = {0.1, 1.0, 2.5, 7.0, 1e-300, 1e300};
  const std::vector<double> demands = {0.6, 0.75, 0.9, 1e-3, 5.0, 0.0};
  Probe probe;
  std::size_t checked = 0;
  std::size_t admitted = 0;
  for (const double lambda : lambdas) {
    for (const double f : fs) {
      const security::RiskPolicy policy =
          security::RiskPolicy::f_risky(f, lambda);
      const RiskFilter filter(policy);
      double d_star = -std::log1p(-std::min(f, 1.0)) / lambda;
      if (!std::isfinite(d_star)) d_star = 1.0;  // no finite threshold
      for (const double sd : demands) {
        for (const double sl : levels_around(sd, d_star)) {
          for (const bool secure_only : {false, true}) {
            probe.set(sd, sl, secure_only);
            const bool exact = admissible(probe.context, probe.job, 0, policy);
            ASSERT_EQ(filter.job(probe.job).admits(probe.context, 0), exact)
                << "f=" << f << " lambda=" << lambda << " sd=" << sd
                << " sl=" << sl << " secure_only=" << secure_only;
            ++checked;
            admitted += exact ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(admitted, checked / 4);
  EXPECT_LT(admitted, checked);
}

TEST(RiskFilterBand, MatchesAdmissibleOnEveryModeAndSpecialValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {-kInf, -1.0, -0.0, 0.0,  0.4,  0.6,
                                      0.75,  0.9,  1.0,  5.0,  kInf, nan,
                                      std::numeric_limits<double>::min(),
                                      std::numeric_limits<double>::max()};
  std::vector<security::RiskPolicy> all = policies(2.5);
  all.push_back(security::RiskPolicy::f_risky(-0.5));
  all.push_back(security::RiskPolicy::f_risky(nan));
  all.push_back(security::RiskPolicy::f_risky(kInf));
  all.push_back(security::RiskPolicy::f_risky(0.5, 0.0));
  all.push_back(security::RiskPolicy::f_risky(0.5, -1.0));
  all.push_back(security::RiskPolicy::f_risky(0.5, kInf));
  all.push_back(security::RiskPolicy::f_risky(0.5, nan));
  // Subnormal lambda: d* overflows, yet an infinite deficit must still
  // be rejected (Eq. 1 gives P(fail) = 1).
  all.push_back(security::RiskPolicy::f_risky(0.5, 1e-310));
  Probe probe;
  for (const security::RiskPolicy& policy : all) {
    const RiskFilter filter(policy);
    for (const double sd : values) {
      for (const double sl : values) {
        for (const bool secure_only : {false, true}) {
          probe.set(sd, sl, secure_only);
          EXPECT_EQ(filter.job(probe.job).admits(probe.context, 0),
                    admissible(probe.context, probe.job, 0, policy))
              << to_string(policy.mode()) << " f=" << policy.f()
              << " lambda=" << policy.lambda() << " sd=" << sd
              << " sl=" << sl << " secure_only=" << secure_only;
        }
      }
    }
  }
}

TEST(RiskFilterBand, HonoursMaskAndNodeFit) {
  Probe probe;
  probe.set(0.6, 1.0, false);
  const RiskFilter filter(security::RiskPolicy::risky());
  EXPECT_TRUE(filter.job(probe.job).admits(probe.context, 0));
  probe.context.site_up = {0};
  EXPECT_FALSE(filter.job(probe.job).admits(probe.context, 0));
  probe.context.site_up = {1};
  probe.job.nodes = 5;  // the site has 4
  EXPECT_FALSE(filter.job(probe.job).admits(probe.context, 0));
}

}  // namespace
}  // namespace gridsched::sched
