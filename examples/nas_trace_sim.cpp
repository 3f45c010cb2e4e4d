// NAS trace scenario: generate the synthetic NASA Ames iPSC/860 trace
// (or load a real one from a file), run the full 7-algorithm comparison of
// the paper's Section 4.4 at a configurable scale, and print per-site
// utilization for the winner.
//
//   ./nas_trace_sim [--jobs=2000] [--seed=7] [--reps=1]
//   ./nas_trace_sim --trace=jobs.trace --sites=sites.trace
#include <cstdio>

#include "gridsched.hpp"

using namespace gridsched;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n_jobs =
      static_cast<std::size_t>(cli.get_or("jobs", std::int64_t{2000}));
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{7}));
  const auto reps =
      static_cast<std::size_t>(cli.get_or("reps", std::int64_t{1}));

  exp::Scenario scenario = exp::nas_scenario(n_jobs);

  // Optional: replay a real trace instead of the synthetic model.
  if (cli.has("trace") && cli.has("sites")) {
    const auto jobs = workload::read_jobs_file(*cli.get("trace"));
    const auto sites = workload::read_sites_file(*cli.get("sites"));
    std::printf("Replaying %zu jobs on %zu sites from files\n\n", jobs.size(),
                sites.size());
    sim::SimKernel kernel(sites, jobs, scenario.engine);
    sched::MinMinScheduler scheduler(security::RiskPolicy::f_risky(0.5));
    kernel.run(scheduler);
    const auto run = metrics::compute_metrics(kernel);
    std::printf("makespan %.0f s, avg response %.0f s, slowdown %.2f\n",
                run.makespan, run.avg_response, run.slowdown_ratio);
    return 0;
  }

  core::StgaConfig stga;
  std::printf("NAS trace scenario: %zu jobs on 12 sites (4x16 + 8x8 nodes), "
              "%zu rep(s)\n\n", n_jobs, reps);

  util::Table table({"algorithm", "makespan (s)", "response (s)", "slowdown",
                     "N_fail/N_risk", "idle sites"});
  metrics::RunMetrics best_run;
  std::string best_name;
  for (const auto& spec : exp::paper_roster(0.5, stga)) {
    const auto result = exp::run_replicated(scenario, spec, reps, seed);
    const auto& run = result.runs.front();
    table.row()
        .cell(spec.name)
        .cell(result.aggregate.makespan().mean(), 0)
        .cell(result.aggregate.avg_response().mean(), 0)
        .cell(result.aggregate.slowdown().mean(), 2)
        .cell(std::to_string(
                  static_cast<long>(result.aggregate.n_fail().mean())) +
              "/" +
              std::to_string(
                  static_cast<long>(result.aggregate.n_risk().mean())))
        .cell(run.idle_sites);
    if (best_name.empty() || run.makespan < best_run.makespan) {
      best_run = run;
      best_name = spec.name;
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("Per-site utilization of the best performer (%s):\n",
              best_name.c_str());
  for (std::size_t s = 0; s < best_run.site_utilization.size(); ++s) {
    const int bars = static_cast<int>(best_run.site_utilization[s] * 40.0);
    std::printf("  site %2zu %5.1f%% |", s + 1,
                100.0 * best_run.site_utilization[s]);
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }
  return 0;
}
