// Steady-state allocation guard for the streaming kernel: once
// the event loop has warmed its buffers (slot table, event queue, pending
// queue, scheduler context), running the hot loop — admissions,
// dispatches, completions, retirements, slot recycling — must perform
// ZERO heap allocations — with each of the six list heuristics scheduling
// too, whose working buffers (the site index among them) persist across
// cycles. Pinned
// with the same binary-wide counting allocator the decode fast path uses
// (decode_harness.hpp; this must stay the only translation unit in this
// binary including it).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "decode_harness.hpp"  // counting allocator (one TU per binary!)
#include "exp/scenario.hpp"
#include "metrics/metrics.hpp"
#include "sched/heuristics.hpp"
#include "security/security.hpp"
#include "sim/kernel.hpp"
#include "sim/scheduling.hpp"
#include "workload/synth/stream_gen.hpp"

namespace gridsched {
namespace {

using bench::allocation_count;

/// Allocation-free batch scheduler: greedy first-usable-site placement
/// written through schedule_into into the kernel's persistent assignment
/// buffer. After warmup the buffer's capacity covers every later batch, so
/// scheduling contributes no heap traffic — isolating the kernel loop.
class GreedyIntoScheduler final : public sim::BatchScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "greedy-into"; }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    out.clear();
    for (std::size_t j = 0; j < context.jobs.size(); ++j) {
      const sim::BatchJob& job = context.jobs[j];
      for (std::size_t s = 0; s < context.sites.size(); ++s) {
        if (!context.site_usable(s)) continue;
        if (context.sites[s].nodes < job.nodes) continue;
        // Fail-stop retries must land on a safe site (kernel protocol).
        if (job.secure_only &&
            !security::is_safe(job.demand, context.sites[s].security)) {
          continue;
        }
        out.push_back({j, static_cast<sim::SiteId>(s)});
        break;
      }
    }
  }
};

/// Records the allocator count at every batch cycle (into pre-reserved
/// storage, so the observer itself never allocates mid-run).
class AllocSampleObserver final : public sim::KernelObserver {
 public:
  AllocSampleObserver() { samples.reserve(4096); }

  void on_cycle(const sim::SimKernel&, sim::Time, std::size_t, std::size_t,
                double) override {
    if (samples.size() < samples.capacity()) {
      samples.push_back(allocation_count());
    }
  }

  std::vector<std::uint64_t> samples;
};

/// Forwards to `inner` and records, after every cycle, how many heap
/// allocations its schedule_into calls have made so far: the scheduler's
/// own share of the event loop's heap traffic.
class SchedulerAllocProbe final : public sim::BatchScheduler {
 public:
  explicit SchedulerAllocProbe(sim::BatchScheduler& inner) : inner_(inner) {
    samples.reserve(4096);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void schedule_into(const sim::SchedulerContext& context,
                     std::vector<sim::Assignment>& out) override {
    const std::uint64_t before = allocation_count();
    inner_.schedule_into(context, out);
    inside_ += allocation_count() - before;
    if (samples.size() < samples.capacity()) samples.push_back(inside_);
  }

  std::vector<std::uint64_t> samples;

 private:
  sim::BatchScheduler& inner_;
  std::uint64_t inside_ = 0;
};

/// Which allocations the steady state must be free of.
enum class Scope {
  kEventLoop,  ///< the whole loop: kernel and scheduler
  kScheduler,  ///< the scheduler's schedule_into calls only
};

/// Runs a 6000-job streaming workload on `n_sites` sites under `scheduler`
/// and checks that the second half of its batch cycles performed no heap
/// allocation within `scope`.
void expect_allocation_free_stream(sim::BatchScheduler& scheduler,
                                   std::size_t n_sites = 20,
                                   Scope scope = Scope::kEventLoop) {
  workload::synth::SynthStreamConfig config;
  config.name = "alloc-probe";
  config.n_jobs = 6000;
  config.n_sites = n_sites;
  // ~70% load on the default site pattern (0.2 jobs/s per 20 sites).
  config.arrival.rate = 0.01 * static_cast<double>(n_sites);
  workload::synth::StreamWorkload stream =
      workload::synth::stream_workload(config, 13);

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  sim::SimKernel kernel(std::move(stream.sites), std::move(stream.jobs),
                        engine_config, std::move(stream.exec),
                        std::move(stream.churn));
  AllocSampleObserver probe;
  kernel.set_observer(&probe);
  SchedulerAllocProbe counted(scheduler);
  kernel.run(counted);

  EXPECT_EQ(kernel.retired_jobs(), config.n_jobs);
  ASSERT_GE(probe.samples.size(), 16u)
      << "run produced too few batch cycles to observe a steady state";

  // Every buffer high-water mark is deterministic (fixed seeds), so the
  // allocation count at two fixed cycles is deterministic too: after the
  // warmup half, the hot loop must not have touched the heap at all.
  const std::vector<std::uint64_t>& samples =
      scope == Scope::kEventLoop ? probe.samples : counted.samples;
  const std::size_t half = samples.size() / 2;
  const std::uint64_t at_half = samples[half];
  const std::uint64_t at_end = samples.back();
  EXPECT_EQ(at_half, at_end)
      << (at_end - at_half) << " heap allocation(s) in the steady-state "
      << (scope == Scope::kEventLoop ? "event loop" : "scheduler")
      << " under " << scheduler.name() << " between cycle " << half
      << " and cycle " << (samples.size() - 1);
}

TEST(StreamKernelAlloc, SteadyStateEventLoopIsAllocationFree) {
  GreedyIntoScheduler scheduler;
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, MctSchedulerSteadyStateIsAllocationFree) {
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, MinMinSchedulerSteadyStateIsAllocationFree) {
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, MaxMinSchedulerSteadyStateIsAllocationFree) {
  sched::MaxMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, SufferageSchedulerSteadyStateIsAllocationFree) {
  sched::SufferageScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, MetSchedulerSteadyStateIsAllocationFree) {
  // MET ignores load, so its backlog on the fastest site grows through the
  // whole run: the kernel's event heap and slot buffers keep reaching new
  // high-water marks (amortised doublings). The scheduler's own calls must
  // still be heap-free.
  sched::MetScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler, 20, Scope::kScheduler);
}

TEST(StreamKernelAlloc, OlbSchedulerSteadyStateIsAllocationFree) {
  sched::OlbScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(scheduler);
}

TEST(StreamKernelAlloc, MctAndSufferageOn256SitesAreAllocationFree) {
  // A tree of 128 leaves: the per-cycle rebuild reuses its capacity.
  sched::MctScheduler mct(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(mct, 256);
  sched::SufferageScheduler sufferage(security::RiskPolicy::f_risky(0.5));
  expect_allocation_free_stream(sufferage, 256);
}

TEST(StreamKernelAlloc, JobVectorSteadyStateIsAllocationFreeToo) {
  // The same guard for a job vector handed to the Engine, which admits it
  // through a MaterializedStream with the slot table reserved up front.
  workload::synth::SynthStreamConfig config;
  config.name = "alloc-probe-vector";
  config.n_jobs = 3000;
  config.n_sites = 20;
  config.arrival.rate = 0.2;
  workload::Workload drained = workload::synth::materialize_stream(
      workload::synth::stream_workload(config, 13));

  sim::EngineConfig engine_config;
  engine_config.batch_interval = 100.0;
  engine_config.seed = 4;
  sim::SimKernel kernel(drained.sites, drained.jobs, engine_config, drained.exec,
                        drained.churn);
  AllocSampleObserver probe;
  kernel.set_observer(&probe);
  GreedyIntoScheduler scheduler;
  kernel.run(scheduler);

  ASSERT_GE(probe.samples.size(), 16u);
  const std::size_t half = probe.samples.size() / 2;
  EXPECT_EQ(probe.samples[half], probe.samples.back());
}

}  // namespace
}  // namespace gridsched
