#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "sched/heuristics.hpp"

namespace gridsched::metrics {
namespace {

sim::Job make_job(double arrival, double work, unsigned nodes, double demand) {
  sim::Job job;
  job.arrival = arrival;
  job.work = work;
  job.nodes = nodes;
  job.demand = demand;
  return job;
}

/// One node, two safe jobs, interval 50: fully deterministic timeline.
sim::SimKernel deterministic_run() {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  sim::SimKernel kernel({{0, 1, 1.0, 1.0}},
                        {make_job(10.0, 100.0, 1, 0.8), make_job(20.0, 50.0, 1,
                                                                 0.8)},
                        config);
  static sched::MctScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  return kernel;
}

TEST(Metrics, HandComputedDeterministicTimeline) {
  // Batch at t=50: J0 runs 50..150, J1 runs 150..200 (MCT in batch order).
  const sim::SimKernel kernel = deterministic_run();
  const RunMetrics metrics = compute_metrics(kernel);

  EXPECT_EQ(metrics.n_jobs, 2u);
  EXPECT_DOUBLE_EQ(metrics.makespan, 200.0);
  // Responses: (150-10)=140, (200-20)=180 -> mean 160.
  EXPECT_DOUBLE_EQ(metrics.avg_response, 160.0);
  // Final execs: 100 and 50 -> mean 75.
  EXPECT_DOUBLE_EQ(metrics.avg_final_exec, 75.0);
  // Eq. 3: ratio of sums = 320 / 150.
  EXPECT_DOUBLE_EQ(metrics.slowdown_ratio, 320.0 / 150.0);
  // Per-job slowdowns: 1.4 and 3.6 -> mean 2.5.
  EXPECT_DOUBLE_EQ(metrics.mean_job_slowdown, 2.5);
  EXPECT_EQ(metrics.n_risk, 0u);
  EXPECT_EQ(metrics.n_fail, 0u);
  EXPECT_EQ(metrics.total_attempts, 2u);
  // Busy 150 node-seconds on a 1-node site over makespan 200.
  ASSERT_EQ(metrics.site_utilization.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.site_utilization[0], 0.75);
  EXPECT_DOUBLE_EQ(metrics.avg_utilization, 0.75);
  EXPECT_EQ(metrics.idle_sites, 0u);
  EXPECT_GE(metrics.batch_invocations, 1u);
}

TEST(Metrics, CountsRiskAndFailures) {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  config.lambda = 1000.0;  // certain failure on the risky site
  config.detection = sim::FailureDetection::kAtEnd;
  sim::SimKernel kernel({{0, 1, 1.0, 0.4}, {1, 1, 1.0, 1.0}},
                        {make_job(0.0, 100.0, 1, 0.9)}, config);
  sched::MetScheduler scheduler(security::RiskPolicy::risky());
  kernel.run(scheduler);
  const RunMetrics metrics = compute_metrics(kernel);
  EXPECT_EQ(metrics.n_risk, 1u);
  EXPECT_EQ(metrics.n_fail, 1u);
  EXPECT_EQ(metrics.total_attempts, 2u);
  EXPECT_LE(metrics.n_fail, metrics.n_risk);
}

TEST(Metrics, IdleSiteDetection) {
  sim::EngineConfig config;
  config.batch_interval = 10.0;
  // Second site is unusably slow-secured for this demand under secure mode.
  sim::SimKernel kernel({{0, 1, 1.0, 0.95}, {1, 1, 1.0, 0.45}},
                        {make_job(0.0, 30.0, 1, 0.9)}, config);
  sched::MinMinScheduler scheduler(security::RiskPolicy::secure());
  kernel.run(scheduler);
  const RunMetrics metrics = compute_metrics(kernel);
  EXPECT_EQ(metrics.idle_sites, 1u);
  EXPECT_DOUBLE_EQ(metrics.site_utilization[1], 0.0);
}

TEST(MetricsAggregate, AccumulatesRunningStats) {
  RunMetrics a;
  a.makespan = 100.0;
  a.avg_response = 10.0;
  a.slowdown_ratio = 2.0;
  a.n_risk = 5;
  a.n_fail = 2;
  a.avg_utilization = 0.5;
  a.site_utilization = {0.4, 0.6};
  RunMetrics b = a;
  b.makespan = 300.0;
  b.site_utilization = {0.8, 1.0};

  MetricsAggregate aggregate;
  aggregate.add(a);
  aggregate.add(b);
  EXPECT_EQ(aggregate.runs(), 2u);
  EXPECT_DOUBLE_EQ(aggregate.makespan().mean(), 200.0);
  EXPECT_DOUBLE_EQ(aggregate.makespan().min(), 100.0);
  EXPECT_DOUBLE_EQ(aggregate.makespan().max(), 300.0);
  EXPECT_DOUBLE_EQ(aggregate.n_risk().mean(), 5.0);
  ASSERT_EQ(aggregate.site_utilization().size(), 2u);
  EXPECT_DOUBLE_EQ(aggregate.site_utilization()[0].mean(), 0.6);
  EXPECT_DOUBLE_EQ(aggregate.site_utilization()[1].mean(), 0.8);
}

TEST(MetricsAggregate, HandlesHeterogeneousSiteCounts) {
  RunMetrics small;
  small.site_utilization = {0.5};
  RunMetrics large;
  large.site_utilization = {0.1, 0.9};
  MetricsAggregate aggregate;
  aggregate.add(small);
  aggregate.add(large);
  ASSERT_EQ(aggregate.site_utilization().size(), 2u);
  EXPECT_EQ(aggregate.site_utilization()[0].count(), 2u);
  EXPECT_EQ(aggregate.site_utilization()[1].count(), 1u);
}

}  // namespace
}  // namespace gridsched::metrics
