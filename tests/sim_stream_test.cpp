// Streaming-kernel regression suite: a run of every registry scenario
// must reproduce its golden digests (metrics, trace bytes, timeseries
// bytes), slots must recycle under churn without retiring revoked jobs
// early, admission must reject malformed streams, and the 1e5-job
// streaming scenario must run to completion in O(active) memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "metrics/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_event.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"
#include "workload/stream.hpp"
#include "workload/synth/stream_gen.hpp"

namespace gridsched {
namespace {

using workload::MaterializedStream;

struct RunArtifacts {
  metrics::RunMetrics metrics;
  std::string trace;
  std::string timeseries;
  std::size_t peak_slots = 0;
  std::size_t retired = 0;
};

/// Run `workload` through a fresh Min-Min f-risky kernel, capturing every
/// byte-stable artifact the run produces.
RunArtifacts run_workload(const workload::Workload& workload,
                          sim::EngineConfig config) {
  obs::SimTraceRecorder trace;
  obs::TimeSeriesProbe probe(500.0);
  sim::KernelObserverTee tee;
  tee.add(&trace);
  tee.add(&probe);

  sim::SimKernel kernel(workload.sites, workload.jobs, config, workload.exec,
                        workload.churn);
  kernel.set_observer(&tee);
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  RunArtifacts artifacts;
  artifacts.metrics = metrics::compute_metrics(kernel);
  artifacts.trace = trace.render();
  artifacts.timeseries = obs::render_timeseries_json(probe.series());
  artifacts.peak_slots = kernel.peak_slots();
  artifacts.retired = kernel.retired_jobs();
  return artifacts;
}

/// 64-bit FNV-1a: a compact, platform-independent digest of a byte string.
std::uint64_t digest(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Every deterministic RunMetrics field, doubles as exact hex floats.
/// scheduler_seconds is host time and stays out.
std::string canonical_metrics(const metrics::RunMetrics& m) {
  std::string out;
  char buffer[96];
  auto count = [&](const char* name, std::size_t value) {
    std::snprintf(buffer, sizeof buffer, "%s=%zu\n", name, value);
    out += buffer;
  };
  auto real = [&](const char* name, double value) {
    std::snprintf(buffer, sizeof buffer, "%s=%a\n", name, value);
    out += buffer;
  };
  count("n_jobs", m.n_jobs);
  count("n_risk", m.n_risk);
  count("n_fail", m.n_fail);
  count("total_attempts", m.total_attempts);
  count("failure_events", m.failure_events);
  count("risky_attempts", m.risky_attempts);
  count("released_nodes", m.released_nodes);
  count("unreleased_nodes", m.unreleased_nodes);
  count("site_down_events", m.site_down_events);
  count("site_up_events", m.site_up_events);
  count("interruptions", m.interruptions);
  count("n_interrupted", m.n_interrupted);
  count("churn_released_nodes", m.churn_released_nodes);
  count("churn_unreleased_nodes", m.churn_unreleased_nodes);
  real("makespan", m.makespan);
  real("avg_response", m.avg_response);
  real("avg_final_exec", m.avg_final_exec);
  real("slowdown_ratio", m.slowdown_ratio);
  real("mean_job_slowdown", m.mean_job_slowdown);
  count("batch_invocations", m.batch_invocations);
  for (const double utilization : m.site_utilization) {
    real("site_utilization", utilization);
  }
  real("avg_utilization", m.avg_utilization);
  count("idle_sites", m.idle_sites);
  return out;
}

struct RegistryGolden {
  const char* scenario;
  std::uint64_t metrics;
  std::uint64_t trace;
  std::uint64_t timeseries;
};

// Digests of the run below for every registry scenario, recorded with the
// kernel that still materialised every job up front (slot == id, all
// arrivals injected at start). The single streamed admission path must
// reproduce those bytes exactly.
constexpr RegistryGolden kRegistryGolden[] = {
    {"nas", 0xf30e5b59b5816918ULL,
     0xb169abe9125e6309ULL, 0x8f1610fea0556cd0ULL},
    {"psa", 0x0e5ce55a0ac5e72eULL,
     0x6edbd78e39f43bfbULL, 0xfb5167f7d9f4787bULL},
    {"synth-batch", 0x4c7ffeae972891a9ULL,
     0x831ad9d700967f4bULL, 0x64887dc93fed5780ULL},
    {"synth-bursty", 0x855a1cb2c0aeb6d8ULL,
     0xfbb84b4e88786511ULL, 0xdf08a17409e1647cULL},
    {"synth-churn-hi", 0x08e6796f74e2490cULL,
     0x46f3509b27a202bbULL, 0x3371d0951bcd0a0bULL},
    {"synth-churn-lo", 0xb5d946bd5b20f462ULL,
     0x97d719c6129285eeULL, 0x64896954803192fbULL},
    {"synth-consistent-hihi", 0x7cfa889fc321f3e0ULL,
     0x9ae9cf67d0e6bc5aULL, 0xa502b0dcf579ec79ULL},
    {"synth-consistent-lolo", 0x7262f22286b23c8dULL,
     0x9bf809ea36fffb72ULL, 0x802f07f0148d5a67ULL},
    {"synth-inconsistent-hihi", 0x9361ca53847cfd6eULL,
     0x91f9f0149b0ee0ceULL, 0x1054b138f775730dULL},
    {"synth-inconsistent-lolo", 0x9a2e0174a7544e9fULL,
     0x8e2fb740d4b63dccULL, 0xe2a6e45254cfaf2dULL},
    {"synth-risky", 0x6475adc15acafe31ULL,
     0x9fb963b8ece8ceb3ULL, 0x80ea2adaeea07053ULL},
    {"synth-secure", 0x8ba554f8e2cd0ea1ULL,
     0xbba0fd84e088b47eULL, 0x0aebaa7203637eb5ULL},
    {"synth-semi-hihi", 0x891b6bc79f9f84d3ULL,
     0xb7da2024856e59e4ULL, 0x3326acb069035464ULL},
    {"synth-semi-lolo", 0xeac422b853ce2c81ULL,
     0x9ca124ccfb3c48d0ULL, 0x2c912a176a682c16ULL},
    {"synth-stream-hi", 0x159f6ce508f293adULL,
     0x66129f9cbae970dbULL, 0xa9fec688a5cf0d29ULL},
    {"synth-stream-med", 0x1bc6f4593901e6f3ULL,
     0x31ed6ef2c1a55420ULL, 0x715879af3af41fedULL},
};

TEST(StreamKernel, RegistryRunsMatchGoldenDigests) {
  const std::vector<std::string> names = exp::scenario_names();
  ASSERT_EQ(names.size(), std::size(kRegistryGolden));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    SCOPED_TRACE(name);
    const RegistryGolden& golden = kRegistryGolden[i];
    ASSERT_EQ(name, golden.scenario);
    const exp::Scenario scenario = exp::make_scenario(name, 80);
    const workload::Workload workload = exp::make_workload(scenario, 17);
    sim::EngineConfig config = scenario.engine;
    config.seed = 9;
    const RunArtifacts run = run_workload(workload, config);

    const std::uint64_t metrics = digest(canonical_metrics(run.metrics));
    const std::uint64_t trace = digest(run.trace);
    const std::uint64_t timeseries = digest(run.timeseries);
    EXPECT_EQ(metrics, golden.metrics);
    EXPECT_EQ(trace, golden.trace);
    EXPECT_EQ(timeseries, golden.timeseries);
    if (metrics != golden.metrics || trace != golden.trace ||
        timeseries != golden.timeseries) {
      std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL, 0x%016llxULL},\n",
                  name.c_str(), static_cast<unsigned long long>(metrics),
                  static_cast<unsigned long long>(trace),
                  static_cast<unsigned long long>(timeseries));
    }
    EXPECT_EQ(run.retired, workload.jobs.size());
    EXPECT_LE(run.peak_slots, workload.jobs.size());
  }
}

/// Observer asserting the retirement frontier's safety invariants at every
/// callback: no live callback may name a retired id, and the frontier can
/// never outrun the completions actually observed (a revoked-then-pending
/// job must hold the frontier back until it really completes).
class FrontierInvariantObserver final : public sim::KernelObserver {
 public:
  void on_dispatch(const sim::SimKernel& kernel, sim::JobId job, sim::SiteId,
                   const sim::NodeAvailability::Window&, double,
                   unsigned) override {
    EXPECT_FALSE(kernel.is_retired(job)) << "dispatched job " << job;
  }
  void on_revoke(const sim::SimKernel& kernel, sim::JobId job, sim::SiteId,
                 sim::Time) override {
    ++revocations;
    EXPECT_FALSE(kernel.is_retired(job)) << "revoked job " << job;
    EXPECT_LE(kernel.retired_jobs(), completions);
  }
  void on_job_complete(const sim::SimKernel& kernel, sim::JobId job,
                       sim::SiteId, sim::Time) override {
    ++completions;
    EXPECT_FALSE(kernel.is_retired(job)) << "completed job " << job;
    EXPECT_LE(kernel.retired_jobs(), completions);
  }

  std::size_t revocations = 0;
  std::size_t completions = 0;
};

TEST(StreamKernel, SlotRecyclingHoldsFrontierThroughChurn) {
  const exp::Scenario scenario = exp::make_scenario("synth-churn-hi", 150);
  const workload::Workload workload = exp::make_workload(scenario, 5);
  sim::EngineConfig config = scenario.engine;
  config.seed = 11;
  sim::SimKernel kernel(workload.sites,
                        std::make_unique<MaterializedStream>(workload.jobs),
                        config, workload.exec, workload.churn);
  FrontierInvariantObserver invariants;
  kernel.set_observer(&invariants);
  sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  EXPECT_GT(invariants.revocations, 0u)
      << "churn scenario produced no interruptions; the frontier "
         "invariant was not exercised — pick another seed";
  EXPECT_EQ(invariants.completions, workload.jobs.size());
  EXPECT_EQ(kernel.retired_jobs(), workload.jobs.size());
  EXPECT_EQ(kernel.retirement().jobs(), workload.jobs.size());
  // Arrivals trickle in over the horizon while completed jobs retire, so
  // the slot table's high-water mark stays below the total job count.
  EXPECT_LT(kernel.peak_slots(), workload.jobs.size());
}

/// Fixed-size scripted stream for the error paths.
class ScriptedStream final : public workload::JobStream {
 public:
  ScriptedStream(std::vector<sim::Job> jobs, std::size_t claimed)
      : jobs_(std::move(jobs)), claimed_(claimed) {}
  [[nodiscard]] std::size_t size() const noexcept override { return claimed_; }
  bool next(sim::Job& job) override {
    if (cursor_ == jobs_.size()) return false;
    job = jobs_[cursor_++];
    return true;
  }

 private:
  std::vector<sim::Job> jobs_;
  std::size_t claimed_;
  std::size_t cursor_ = 0;
};

sim::Job stream_job(sim::Time arrival) {
  sim::Job job;
  job.arrival = arrival;
  job.work = 10.0;
  job.nodes = 1;
  job.demand = 0.5;
  return job;
}

sim::EngineConfig quick_config() {
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  config.detection = sim::FailureDetection::kAtEnd;
  return config;
}

TEST(StreamKernel, NullStreamIsRejected) {
  EXPECT_THROW(sim::SimKernel({{0, 1, 1.0, 1.0}},
                              std::unique_ptr<workload::JobStream>{},
                              quick_config()),
               std::invalid_argument);
}

TEST(StreamKernel, ShortStreamThrowsWithProgressCount) {
  auto stream = std::make_unique<ScriptedStream>(
      std::vector<sim::Job>{stream_job(0.0), stream_job(1.0)}, 5);
  sim::SimKernel kernel({{0, 4, 1.0, 1.0}}, std::move(stream), quick_config());
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  try {
    kernel.run(scheduler);
    FAIL() << "short stream did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("job stream ended after 2 of 5"),
              std::string::npos)
        << error.what();
  }
}

TEST(StreamKernel, OutOfOrderStreamIsRejected) {
  auto stream = std::make_unique<ScriptedStream>(
      std::vector<sim::Job>{stream_job(10.0), stream_job(5.0)}, 2);
  sim::SimKernel kernel({{0, 4, 1.0, 1.0}}, std::move(stream), quick_config());
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  EXPECT_THROW(kernel.run(scheduler), std::invalid_argument);
}

TEST(StreamKernel, InfeasibleStreamedJobIsRejectedAtAdmission) {
  // Only site offers SL 0.7 < demand 0.9: the O(1) per-admission check
  // must reject it.
  auto bad = stream_job(0.0);
  bad.demand = 0.9;
  auto stream = std::make_unique<ScriptedStream>(std::vector<sim::Job>{bad}, 1);
  sim::SimKernel kernel({{0, 4, 1.0, 0.7}}, std::move(stream), quick_config());
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  EXPECT_THROW(kernel.run(scheduler), std::invalid_argument);
}

TEST(StreamKernel, DescribeUnfinishedCoversUnadmittedJobs) {
  auto stream = std::make_unique<ScriptedStream>(
      std::vector<sim::Job>{stream_job(0.0), stream_job(1.0)}, 2);
  sim::SimKernel kernel({{0, 4, 1.0, 1.0}}, std::move(stream), quick_config());
  // Before run() nothing is admitted: every job reports as pending.
  const std::string text = kernel.describe_unfinished(0.0);
  EXPECT_NE(text.find("2 of 2 job(s) unfinished"), std::string::npos) << text;
  EXPECT_NE(text.find("0 (pending), 1 (pending)"), std::string::npos) << text;
}

TEST(StreamKernel, HundredThousandJobStreamStaysSmall) {
  // The Debug-friendly streaming smoke: the full synth-stream-med scenario
  // (1e5 jobs / 100 sites) must run to completion with a slot table orders
  // of magnitude below the job count — the O(active) memory claim.
  const exp::Scenario scenario = exp::make_scenario("synth-stream-med", 0);
  workload::synth::StreamWorkload stream = exp::make_stream_workload(scenario,
                                                                     3);
  sim::EngineConfig config = scenario.engine;
  config.seed = 21;
  sim::SimKernel kernel(std::move(stream.sites), std::move(stream.jobs), config,
                        std::move(stream.exec), std::move(stream.churn));
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);

  const metrics::RunMetrics run = metrics::compute_metrics(kernel);
  EXPECT_EQ(run.n_jobs, 100000u);
  EXPECT_EQ(kernel.retired_jobs(), 100000u);
  EXPECT_GT(run.makespan, 0.0);
  // ~0.25 jobs/s at ~2.6 ks response keeps a few thousand jobs in flight;
  // anything near 1e5 means slots stopped recycling.
  EXPECT_LT(kernel.peak_slots(), 16384u);
}

TEST(StreamKernel, RunOnceStreamsAndMatchesMaterializedDrain) {
  // run_once on a streaming scenario must agree with a run over the
  // drained vector of the same (scenario, seed) — the runner derives the
  // workload seed from the cell seed, so reproduce that here.
  const exp::Scenario scenario = exp::make_scenario("synth-stream-med", 400);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec("mct", security::RiskPolicy::f_risky(0.5));
  const metrics::RunMetrics streamed = exp::run_once(scenario, spec, 7);

  const std::uint64_t workload_seed = util::Rng::child(7, 1).next_u64();
  const std::uint64_t engine_seed = util::Rng::child(7, 2).next_u64();
  const workload::Workload drained = exp::make_workload(scenario,
                                                        workload_seed);
  sim::EngineConfig config = scenario.engine;
  config.seed = engine_seed;
  sim::SimKernel kernel(drained.sites, drained.jobs, config, drained.exec,
                        drained.churn);
  sched::MctScheduler scheduler(security::RiskPolicy::f_risky(0.5));
  kernel.run(scheduler);
  const metrics::RunMetrics drained_run = metrics::compute_metrics(kernel);

  EXPECT_EQ(streamed.n_jobs, drained_run.n_jobs);
  EXPECT_EQ(streamed.makespan, drained_run.makespan);
  EXPECT_EQ(streamed.avg_response, drained_run.avg_response);
  EXPECT_EQ(streamed.slowdown_ratio, drained_run.slowdown_ratio);
  EXPECT_EQ(streamed.n_risk, drained_run.n_risk);
  EXPECT_EQ(streamed.n_fail, drained_run.n_fail);
  EXPECT_EQ(streamed.site_utilization, drained_run.site_utilization);
}

}  // namespace
}  // namespace gridsched
