#include "exp/runner.hpp"

#include <memory>
#include <utility>

#include "core/ga_scheduler.hpp"
#include "sched/heuristics.hpp"

namespace gridsched::exp {

namespace {

/// Paper bootstrap (DESIGN.md S8): schedule training jobs with Min-Min and
/// Sufferage (half each), recording every batch solution into the STGA's
/// history table.
void train_stga(const Scenario& scenario, const workload::Workload& main,
                core::GaScheduler& stga, std::uint64_t seed,
                const util::CancelToken* cancel) {
  const std::size_t total = scenario.training_jobs;
  if (total == 0) return;
  const std::size_t half = total / 2;

  sched::MinMinScheduler min_min(security::RiskPolicy::risky());
  sched::SufferageScheduler sufferage(security::RiskPolicy::risky());
  struct Phase {
    std::size_t jobs;
    sim::BatchScheduler& heuristic;
    std::uint64_t salt;
  };
  const Phase phases[] = {{total - half, min_min, 0xB001},
                          {half, sufferage, 0xB002}};
  for (const Phase& phase : phases) {
    if (phase.jobs == 0) continue;
    const std::uint64_t phase_seed =
        util::Rng::child(seed, phase.salt).next_u64();
    workload::Workload training =
        make_training_workload(scenario, main, phase.jobs, phase_seed);
    core::RecordingScheduler recorder(phase.heuristic, stga);
    sim::EngineConfig engine_config = scenario.engine;
    engine_config.seed = phase_seed;
    engine_config.cancel = cancel;  // the watchdog covers training too
    sim::SimKernel kernel(std::move(training.sites), std::move(training.jobs),
                          engine_config, std::move(training.exec));
    kernel.run(recorder);
  }
}

}  // namespace

metrics::RunMetrics run_once(const Scenario& scenario,
                             const AlgorithmSpec& spec,
                             std::uint64_t seed, util::ThreadPool* ga_pool,
                             const RunHooks& hooks) {
  const std::uint64_t workload_seed = util::Rng::child(seed, 1).next_u64();
  const std::uint64_t engine_seed = util::Rng::child(seed, 2).next_u64();
  const std::uint64_t algo_seed = util::Rng::child(seed, 3).next_u64();

  // The scenario kind chooses the job source and what the STGA trains
  // against. A streaming scenario's cursor goes straight into the kernel,
  // so the run holds O(active jobs), and training borrows only its grid.
  // Every other kind materialises its workload, whose jobs and raw ETC the
  // training phase also samples, then streams the vector.
  workload::Workload main;
  std::unique_ptr<workload::JobStream> jobs;
  if (scenario.kind == ScenarioKind::kSynthStream) {
    workload::synth::StreamWorkload stream =
        make_stream_workload(scenario, workload_seed);
    main.sites = std::move(stream.sites);
    main.exec = std::move(stream.exec);
    main.churn = std::move(stream.churn);
    jobs = std::move(stream.jobs);
  } else {
    main = make_workload(scenario, workload_seed);
  }
  std::unique_ptr<sim::BatchScheduler> scheduler = spec.make(ga_pool,
                                                             algo_seed);
  auto* ga = dynamic_cast<core::GaScheduler*>(scheduler.get());

  // Cancellation attaches before training: a timed-out cell must not
  // spend its whole budget in the bootstrap phase.
  if (ga != nullptr && hooks.cancel != nullptr) {
    ga->set_cancel_token(hooks.cancel);
  }
  if (ga != nullptr && spec.wants_training) {
    train_stga(scenario, main, *ga, seed, hooks.cancel);
  }
  // GA profiling attaches after training so the sink sees only the
  // measured run's scheduler invocations.
  if (ga != nullptr && hooks.ga_profiles != nullptr) {
    ga->set_profile_sink(hooks.ga_profiles);
  }

  if (jobs == nullptr) {
    jobs = std::make_unique<workload::MaterializedStream>(
        std::move(main.jobs));
  }
  sim::EngineConfig engine_config = scenario.engine;
  engine_config.seed = engine_seed;
  engine_config.cancel = hooks.cancel;
  sim::SimKernel kernel(std::move(main.sites), std::move(jobs), engine_config,
                        std::move(main.exec), std::move(main.churn));
  kernel.set_observer(hooks.observer);
  kernel.run(*scheduler);
  return metrics::compute_metrics(kernel);
}

ReplicatedResult run_replicated(const Scenario& scenario,
                                const AlgorithmSpec& spec,
                                std::size_t replications,
                                std::uint64_t base_seed,
                                util::ThreadPool* pool) {
  ReplicatedResult result;
  result.runs.resize(replications);
  auto one = [&](std::size_t r) {
    const std::uint64_t seed = util::Rng::child(base_seed, r).next_u64();
    // GA fitness stays serial inside each replication: the pool's workers
    // are busy running replications and must not block on nested waits.
    result.runs[r] = run_once(scenario, spec, seed, nullptr);
  };
  if (pool != nullptr && replications > 1) {
    pool->parallel_for(replications, one, replications);
  } else {
    for (std::size_t r = 0; r < replications; ++r) one(r);
  }
  for (const auto& run : result.runs) result.aggregate.add(run);
  return result;
}

}  // namespace gridsched::exp
