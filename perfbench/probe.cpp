// perfbench_probe: one measured operation of one benchmark workload, run
// in a fresh process and reported as a single JSON line on stdout.
//
//   perfbench_probe --workload=NAME --seed=N --mode=run|trace|digest
//                   [--part=R] [--t0-ns=NS] [--spec=perfbench/table2.json]
//
// Everything is measured from outside the library, through its public
// entry points and hooks: exp::run_once / CampaignRunner::run, a passive
// sim::KernelObserver, the RunHooks::ga_profiles sink, CellResult
// wall-clock, and standalone exp::make_workload / make_stream_workload
// calls. perfbench/run.py drives this binary; see perfbench/README.md.
//
// Each workload comes in parts (runs or campaign passes with seeds derived
// from --seed). Modes:
//   run     part --part alone, as the end-to-end metrics measure it.
//           Single runs attach only an observer that stamps on_run_start;
//           the campaign attaches nothing and reads on_cell instead.
//   trace   every part untraced and traced, reporting per-layer metrics
//           and whether the traced RunMetrics equal the untraced ones bit
//           for bit.
//   digest  every part's reference digests only (reference.json).
//
// --t0-ns is the parent's CLOCK_MONOTONIC reading just before it spawned
// this process (steady_clock is CLOCK_MONOTONIC on Linux), so setup time
// covers process start-up too.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace gridsched;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A single-run workload: one registry scenario truncated to `jobs`, one
/// heuristic under the paper's f-risky policy (f = 0.5), run with seeds
/// derived from the benchmark seed. The runs are grouped into `parts` of
/// `runs_per_part`; the run mode measures one part per process, so a
/// benchmark run samples every part several times and its cost depends
/// little on one seed's draw (churn outages most of all).
struct SingleRun {
  const char* name;
  const char* scenario;
  std::size_t jobs;
  const char* algo;
  std::size_t parts;
  std::size_t runs_per_part;
};

constexpr SingleRun kSingleRuns[] = {
    {"stream-mct", "synth-stream-hi", 25000, "mct", 4, 1},
    {"churn-mct", "synth-churn-hi", 5000, "mct", 16, 8},
};
constexpr double kRiskBound = 0.5;
/// paper-campaign parts: table2.json's matrix at one replication each.
constexpr std::size_t kCampaignParts = 8;

// ------------------------------------------------------------ digests ---

/// FNV-1a 64 as 16 hex digits: the reference key of a byte string.
std::string fnv_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Every deterministic RunMetrics field, doubles in hex-float form so two
/// strings are equal exactly when the values are bit-identical.
/// scheduler_seconds is host time and stays out.
std::string canonical(const metrics::RunMetrics& m) {
  std::string out;
  char buf[64];
  auto u = [&](std::size_t v) {
    out += std::to_string(v);
    out += ',';
  };
  auto d = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    out += buf;
  };
  u(m.n_jobs);
  u(m.n_risk);
  u(m.n_fail);
  u(m.total_attempts);
  u(m.failure_events);
  u(m.risky_attempts);
  u(m.released_nodes);
  u(m.unreleased_nodes);
  u(m.site_down_events);
  u(m.site_up_events);
  u(m.interruptions);
  u(m.n_interrupted);
  u(m.churn_released_nodes);
  u(m.churn_unreleased_nodes);
  d(m.makespan);
  d(m.avg_response);
  d(m.avg_final_exec);
  d(m.slowdown_ratio);
  d(m.mean_job_slowdown);
  u(m.batch_invocations);
  for (const double s : m.site_utilization) d(s);
  d(m.avg_utilization);
  u(m.idle_sites);
  return out;
}

// ----------------------------------------------------------- observers ---

/// The only hook an untraced run attaches: stamps the first simulated
/// event so setup time can be read from outside.
class StartStamp final : public sim::KernelObserver {
 public:
  Clock::time_point at{};
  void on_run_start(const sim::SimKernel&) override { at = Clock::now(); }
};

/// Traced run: counts every callback and stamps the loop boundaries and
/// each scheduler invocation. Passive — the run stays bit-identical.
class LayerTrace final : public sim::KernelObserver {
 public:
  Clock::time_point start{};
  Clock::time_point end{};
  std::size_t sites = 0;
  std::uint64_t events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t completions = 0;
  std::uint64_t failures = 0;
  std::uint64_t revocations = 0;
  std::uint64_t site_down = 0;
  std::uint64_t batch_jobs = 0;
  std::uint64_t assigned = 0;
  std::uint64_t job_sites = 0;  ///< sum over cycles of batch_jobs x sites
  std::vector<double> cycle_ms;

  void on_run_start(const sim::SimKernel& kernel) override {
    start = Clock::now();
    sites = kernel.sites().size();
  }
  void on_event(const sim::SimKernel&, const sim::Event& event) override {
    ++events;
    if (event.kind == sim::EventKind::kSiteDown) ++site_down;
  }
  void on_dispatch(const sim::SimKernel&, sim::JobId, sim::SiteId,
                   const sim::NodeAvailability::Window&, double,
                   unsigned) override {
    ++dispatches;
  }
  void on_job_complete(const sim::SimKernel&, sim::JobId, sim::SiteId,
                       sim::Time) override {
    ++completions;
  }
  void on_attempt_failure(const sim::SimKernel&, sim::JobId, sim::SiteId,
                          sim::Time) override {
    ++failures;
  }
  void on_revoke(const sim::SimKernel&, sim::JobId, sim::SiteId,
                 sim::Time) override {
    ++revocations;
  }
  void on_cycle(const sim::SimKernel&, sim::Time, std::size_t batch,
                std::size_t placed, double scheduler_wall_seconds) override {
    batch_jobs += batch;
    assigned += placed;
    job_sites += static_cast<std::uint64_t>(batch) * sites;
    cycle_ms.push_back(scheduler_wall_seconds * 1e3);
  }
  void on_run_end(const sim::SimKernel&) override { end = Clock::now(); }
};

// ------------------------------------------------------ layer totals ---

/// Median and tail of a sample: the tail is the highest percentile of
/// {75, 90, 95, 99, 99.9} that still has at least ten samples beyond it,
/// falling back to the median for small samples.
struct Spread {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  std::size_t samples = 0;
};

Spread spread_of(std::vector<double> values) {
  Spread s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = [&](double pct) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(pct / 100.0 * n)));
  };
  s.p50 = values[rank(50.0) - 1];
  s.tail = s.p50;
  for (const double pct : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (values.size() - rank(pct) >= 10) {
      s.tail = values[rank(pct) - 1];
      s.tail_pct = pct;
    }
  }
  return s;
}

/// Per-layer sums over the traced runs of one operation.
struct Layers {
  double gen_ms = 0.0;       ///< standalone workload generation
  double setup_ms = 0.0;     ///< run_once entry -> on_run_start
  double sched_ms = 0.0;     ///< heuristic scheduler invocations
  double decide_ms = 0.0;    ///< GA scheduler invocations
  double loop_ms = 0.0;      ///< on_run_start -> on_run_end
  double tail_ms = 0.0;      ///< on_run_end -> run_once return
  double wall_ms = 0.0;      ///< run_once entry -> return (serial)
  double stga_setup_ms = 0.0;
  double evolve_ms = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t batch_jobs = 0;
  std::uint64_t assigned = 0;
  std::uint64_t job_sites = 0;
  std::uint64_t events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t completions = 0;
  std::uint64_t failures = 0;
  std::uint64_t revocations = 0;
  std::uint64_t site_down = 0;
  std::uint64_t evolve_calls = 0;
  std::uint64_t generations = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
  std::vector<double> sched_cycle_ms;
  std::vector<double> decide_cycle_ms;

  /// The sim.* counts, as the reference digest input.
  [[nodiscard]] std::string counts() const {
    return std::to_string(events) + ',' + std::to_string(dispatches) + ',' +
           std::to_string(completions) + ',' + std::to_string(failures) +
           ',' + std::to_string(revocations) + ',' +
           std::to_string(site_down) + ',' + std::to_string(cycles) + ',' +
           std::to_string(batch_jobs) + ',' + std::to_string(assigned);
  }
};

/// One run_once with the full trace attached; folds its spans and counts
/// into `layers`. The scheduler time of a run that reported GA profiles
/// goes to core.* instead of sched.*.
metrics::RunMetrics traced_run(const exp::Scenario& scenario,
                               const exp::AlgorithmSpec& spec,
                               std::uint64_t seed, Layers& layers) {
  LayerTrace trace;
  std::vector<core::GaProfile> profiles;
  exp::RunHooks hooks;
  hooks.observer = &trace;
  hooks.ga_profiles = &profiles;
  const auto entry = Clock::now();
  metrics::RunMetrics run = exp::run_once(scenario, spec, seed, nullptr, hooks);
  const auto done = Clock::now();

  const double setup = ms_between(entry, trace.start);
  layers.setup_ms += setup;
  if (spec.wants_training) layers.stga_setup_ms += setup;
  layers.loop_ms += ms_between(trace.start, trace.end);
  layers.tail_ms += ms_between(trace.end, done);
  layers.wall_ms += ms_between(entry, done);
  layers.jobs += run.n_jobs;
  layers.cycles += trace.cycle_ms.size();
  layers.events += trace.events;
  layers.dispatches += trace.dispatches;
  layers.completions += trace.completions;
  layers.failures += trace.failures;
  layers.revocations += trace.revocations;
  layers.site_down += trace.site_down;
  layers.batch_jobs += trace.batch_jobs;
  layers.assigned += trace.assigned;
  const bool is_ga = !profiles.empty();
  std::vector<double>& cycles =
      is_ga ? layers.decide_cycle_ms : layers.sched_cycle_ms;
  cycles.insert(cycles.end(), trace.cycle_ms.begin(), trace.cycle_ms.end());
  double cycle_sum = 0.0;
  for (const double ms : trace.cycle_ms) cycle_sum += ms;
  if (is_ga) {
    layers.decide_ms += cycle_sum;
  } else {
    layers.sched_ms += cycle_sum;
    layers.job_sites += trace.job_sites;
  }
  for (const core::GaProfile& profile : profiles) {
    ++layers.evolve_calls;
    layers.evolve_ms += profile.total_wall_ms;
    // Entry 0 is the initial population, not a generation.
    if (!profile.generations.empty()) {
      layers.generations += profile.generations.size() - 1;
    }
    for (const core::GaGenerationProfile& g : profile.generations) {
      layers.evaluations += g.evaluations;
      layers.memo_hits += g.memo_hits;
    }
  }
  return run;
}

/// Standalone generation of the workload run_once builds for `seed` (same
/// child-seed derivation). Streams are drained, since the run pays that
/// cost lazily inside the event loop.
double generation_ms(const exp::Scenario& scenario, std::uint64_t seed) {
  const std::uint64_t workload_seed = util::Rng::child(seed, 1).next_u64();
  const auto begin = Clock::now();
  std::size_t jobs = 0;
  if (scenario.kind == exp::ScenarioKind::kSynthStream) {
    workload::synth::StreamWorkload stream =
        exp::make_stream_workload(scenario, workload_seed);
    sim::Job job;
    while (stream.jobs->next(job)) ++jobs;
  } else {
    jobs = exp::make_workload(scenario, workload_seed).jobs.size();
  }
  const double ms = ms_between(begin, Clock::now());
  if (jobs == 0) throw std::runtime_error("standalone generation: no jobs");
  return ms;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// This process's resident high-water mark in MiB, from VmHWM.
/// getrusage's ru_maxrss would do, except Linux carries it across
/// execve, so a fresh process would report its parent's peak.
double peak_rss_mib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) throw std::runtime_error("no /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// What the traced operation measured around the runs rather than inside
/// them: untraced cell walls, exp fan-out ratios and tracing overheads.
struct Around {
  std::vector<double> cell_ms;  ///< untraced run_once / campaign cell walls
  double busy_ratio = 1.0;      ///< cell wall / (threads x campaign wall)
  double inflation = 1.0;       ///< cell wall at nproc / cell wall serial
  double trace_overhead_pct = 0.0;
  double stamp_overhead_pct = 0.0;
};

/// Every per-layer metric, named as in BENCHMARK.json. GA-only quantities
/// are shares and rates so that they are honestly 0 where no GA runs.
bench::JsonObject layer_metrics(const Layers& l, const Around& around) {
  const Spread cycle = spread_of(l.sched_cycle_ms);
  const Spread decide = spread_of(l.decide_cycle_ms);
  const Spread cell = spread_of(around.cell_ms);
  auto per_s = [](double ms) { return ms > 0.0 ? 1e3 / ms : 0.0; };
  const double sim_self_ms = l.loop_ms - l.sched_ms - l.decide_ms;
  bench::JsonObject o;
  o.num("workload.gen_ms", l.gen_ms)
      .num("workload.setup_ms", l.setup_ms)
      .integer("workload.jobs", l.jobs)
      .num("sched.ms", l.sched_ms)
      .num("sched.share", ratio(l.sched_ms, l.wall_ms))
      .integer("sched.cycles", l.sched_cycle_ms.size())
      .integer("sched.batch_jobs", l.batch_jobs)
      .integer("sched.assigned", l.assigned)
      .num("sched.assign_ratio",
           ratio(static_cast<double>(l.assigned),
                 static_cast<double>(l.batch_jobs)))
      .num("sched.cycle_ms.p50", cycle.p50)
      .num("sched.cycle_ms.tail", cycle.tail)
      .num("sched.cycle_ms.tail_pct", cycle.tail_pct)
      .integer("sched.cycle_ms.samples", cycle.samples)
      .num("sched.ns_per_job_site",
           ratio(l.sched_ms * 1e6, static_cast<double>(l.job_sites)))
      .num("core.evolve_share", ratio(l.evolve_ms, l.wall_ms))
      .integer("core.evolve_calls", l.evolve_calls)
      .integer("core.generations", l.generations)
      .integer("core.evaluations", l.evaluations)
      .integer("core.memo_hits", l.memo_hits)
      .num("core.memo_hit_ratio",
           ratio(static_cast<double>(l.memo_hits),
                 static_cast<double>(l.memo_hits + l.evaluations)))
      .num("core.evals_per_ms",
           ratio(static_cast<double>(l.evaluations), l.evolve_ms))
      .num("core.decide_per_s.p50", per_s(decide.p50))
      .num("core.decide_per_s.tail", per_s(decide.tail))
      .num("core.decide.tail_pct", decide.tail_pct)
      .integer("core.decide.samples", decide.samples)
      .num("core.decide_share", ratio(l.decide_ms, l.wall_ms))
      .num("core.stga_setup_share", ratio(l.stga_setup_ms, l.wall_ms))
      .integer("sim.events", l.events)
      .integer("sim.dispatches", l.dispatches)
      .integer("sim.completions", l.completions)
      .integer("sim.failures", l.failures)
      .integer("sim.revocations", l.revocations)
      .integer("sim.site_down", l.site_down)
      .num("sim.useful_dispatch_ratio",
           ratio(static_cast<double>(l.completions),
                 static_cast<double>(l.dispatches)))
      .num("sim.self_ms", sim_self_ms)
      .num("sim.ns_per_event",
           ratio(sim_self_ms * 1e6, static_cast<double>(l.events)))
      .num("metrics.tail_ms", l.tail_ms)
      .integer("exp.cells", cell.samples)
      .num("exp.cell_ms.p50", cell.p50)
      .num("exp.cell_ms.tail", cell.tail)
      .num("exp.cell_ms.tail_pct", cell.tail_pct)
      .num("exp.busy_ratio", around.busy_ratio)
      .num("exp.cell_inflation", around.inflation)
      .num("obs.trace_overhead_pct", around.trace_overhead_pct)
      .num("obs.stamp_overhead_pct", around.stamp_overhead_pct)
      .num("obs.layer_coverage",
           ratio(l.setup_ms + l.sched_ms + l.decide_ms + sim_self_ms +
                     l.tail_ms,
                 l.wall_ms));
  return o;
}

/// Counts that must hold in any correct run, whatever the seed: every job
/// completes exactly once and every dispatch either completes or is
/// revoked.
bool invariants_hold(const Layers& l) {
  return l.completions == l.jobs && l.dispatches == l.completions +
                                                        l.revocations &&
         l.failures <= l.revocations && l.jobs > 0;
}

// ------------------------------------------------------- single runs ---

struct Args {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 20050419;
  std::size_t part = 0;
  std::optional<Clock::time_point> t0;
  std::string spec_path = "perfbench/table2.json";
};

/// JSON array of the digests of `canonicals`, on one line.
std::string digest_array(const std::vector<std::string>& canonicals) {
  std::string out = "[";
  for (const std::string& c : canonicals) {
    if (out.size() > 1) out += ", ";
    out += util::json::quote(fnv_hex(c));
  }
  return out + "]";
}

/// Seed of run k, counted across parts (part r holds runs
/// r * runs_per_part onwards); derived as exp::run_replicated derives
/// replication k's.
std::uint64_t run_seed(const Args& args, std::size_t k) {
  return util::Rng::child(args.seed, k).next_u64();
}

/// run mode: one part in this fresh process, with only the start stamp
/// attached. Setup is process start to the first simulated event, plus
/// each later run's time from run_once entry to its first event.
std::string single_run_part(const SingleRun& w, const exp::Scenario& scenario,
                            const exp::AlgorithmSpec& spec,
                            const Args& args) {
  const Clock::time_point t0 = args.t0.value_or(Clock::now());
  Clock::time_point entry = t0;
  double setup_ms = 0.0;
  std::uint64_t jobs = 0;
  std::string canon;
  for (std::size_t i = 0; i < w.runs_per_part; ++i) {
    StartStamp stamp;
    exp::RunHooks hooks;
    hooks.observer = &stamp;
    const metrics::RunMetrics run = exp::run_once(
        scenario, spec, run_seed(args, args.part * w.runs_per_part + i),
        nullptr, hooks);
    setup_ms += ms_between(entry, stamp.at);
    entry = Clock::now();
    jobs += run.n_jobs;
    canon += canonical(run);
  }
  return bench::JsonObject()
      .text("workload", w.name)
      .integer("parts", w.parts)
      .integer("part", args.part)
      .integer("attempted", w.runs_per_part)
      .integer("failed", 0)
      .integer("jobs", jobs)
      .num("setup_s", setup_ms / 1e3)
      .num("wall_s", ms_between(t0, entry) / 1e3)
      .num("peak_rss_mb", peak_rss_mib())
      .text("digest", fnv_hex(canon))
      .str();
}

std::string single_run(const SingleRun& w, const Args& args) {
  const exp::Scenario scenario = exp::make_scenario(w.scenario, w.jobs);
  const exp::AlgorithmSpec spec =
      exp::heuristic_spec(w.algo, security::RiskPolicy::f_risky(kRiskBound));
  if (args.mode == "run") return single_run_part(w, scenario, spec, args);

  // trace / digest, for every run of every part: a stamped run as the run
  // mode makes it and a traced run that must reproduce it bit for bit.
  // Trace mode adds a run with no observer (the stamp's cost) and
  // standalone generation, after one untimed run: the first run of a
  // process pays page faults the later ones do not.
  const bool timing = args.mode == "trace";
  if (timing) (void)exp::run_once(scenario, spec, run_seed(args, 0));
  Layers layers;
  Around around;
  std::vector<std::string> untraced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double stamped_ms = 0.0;
  double bare_ms = 0.0;
  auto timed_run = [&](std::uint64_t seed, sim::KernelObserver* observer,
                       std::string& canon) {
    exp::RunHooks hooks;
    hooks.observer = observer;
    const auto entry = Clock::now();
    canon = canonical(exp::run_once(scenario, spec, seed, nullptr, hooks));
    ++attempted;
    return ms_between(entry, Clock::now());
  };
  const std::size_t runs = w.parts * w.runs_per_part;
  std::string part_canon;
  for (std::size_t k = 0; k < runs; ++k) {
    const std::uint64_t seed = run_seed(args, k);
    std::string reference;
    std::string traced;
    std::string bare;
    double ms = 0.0;
    // Rotate the three runs' order so neither overhead inherits a
    // position bias.
    for (std::size_t slot = 0; slot < 3; ++slot) {
      switch ((slot + k) % 3) {
        case 0: {
          StartStamp stamp;
          ms = timed_run(seed, &stamp, reference);
          break;
        }
        case 1:
          traced = canonical(traced_run(scenario, spec, seed, layers));
          ++attempted;
          break;
        default:
          if (timing) bare_ms += timed_run(seed, nullptr, bare);
          break;
      }
    }
    if (traced != reference) ++failed;
    if (timing) {
      if (bare != reference) ++failed;
      stamped_ms += ms;
      around.cell_ms.push_back(ms);
      layers.gen_ms += generation_ms(scenario, seed);
    }
    part_canon += reference;
    if ((k + 1) % w.runs_per_part == 0) {
      untraced.push_back(std::move(part_canon));
      part_canon.clear();
    }
  }
  bench::JsonObject out;
  out.text("workload", w.name)
      .integer("parts", w.parts)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("digests", digest_array(untraced))
      .text("counts_digest", fnv_hex(layers.counts()))
      .boolean("invariants",
               invariants_hold(layers) && layers.jobs == w.jobs * runs);
  if (timing) {
    around.trace_overhead_pct = 100.0 * (layers.wall_ms / stamped_ms - 1.0);
    around.stamp_overhead_pct = 100.0 * (stamped_ms / bare_ms - 1.0);
    out.raw("layers", layer_metrics(layers, around).str());
  }
  return out.str();
}

// ---------------------------------------------------------- campaign ---

exp::campaign::CampaignResult run_campaign(
    const exp::campaign::CampaignSpec& spec, std::size_t threads,
    std::optional<Clock::time_point>* first_cell_start = nullptr) {
  exp::campaign::RunnerOptions options;
  options.threads = threads;
  if (first_cell_start != nullptr) {
    options.on_cell = [first_cell_start](
                          const exp::campaign::CellResult& cell, std::size_t,
                          std::size_t) {
      if (first_cell_start->has_value()) return;
      *first_cell_start =
          Clock::now() - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(cell.wall_seconds));
    };
  }
  return exp::campaign::CampaignRunner(options).run(spec);
}

std::size_t failed_cells(const exp::campaign::CampaignResult& result) {
  return result.failed_cells() + result.timed_out_cells();
}

/// Part r of the campaign: table2.json's matrix with one replication,
/// seeded with part r's seed.
exp::campaign::CampaignSpec campaign_part(const Args& args, std::size_t r) {
  exp::campaign::CampaignSpec spec = exp::campaign::load_spec(args.spec_path);
  spec.seed = run_seed(args, r);
  spec.replications = 1;
  return spec;
}

std::string campaign(const Args& args) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (args.mode == "run") {
    std::optional<Clock::time_point> first_start;
    const exp::campaign::CampaignResult result =
        run_campaign(campaign_part(args, args.part), threads, &first_start);
    const Clock::time_point t0 = args.t0.value_or(*first_start);
    return bench::JsonObject()
        .text("workload", "paper-campaign")
        .integer("parts", kCampaignParts)
        .integer("part", args.part)
        .integer("attempted", result.cells.size())
        .integer("failed", failed_cells(result))
        .integer("jobs", result.jobs_simulated)
        .num("setup_s", ms_between(t0, *first_start) / 1e3)
        .num("wall_s", result.wall_seconds)
        .num("peak_rss_mb", peak_rss_mib())
        .text("digest", fnv_hex(exp::campaign::render_json(result)))
        .str();
  }

  // trace / digest, over every part: the runner at nproc threads, then a
  // traced serial pass over the same expanded cells that must reproduce
  // every cell bit for bit. Trace mode adds an untraced serial runner
  // pass (exp.cell_inflation, tracing overhead; the aggregate must match
  // byte for byte) and standalone generation.
  const bool timing = args.mode == "trace";
  Layers layers;
  Around around;
  std::vector<std::string> aggregates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double parallel_cell_s = 0.0;
  double parallel_capacity_s = 0.0;
  double serial_cell_s = 0.0;
  for (std::size_t r = 0; r < kCampaignParts; ++r) {
    const exp::campaign::CampaignSpec spec = campaign_part(args, r);
    const exp::campaign::CampaignResult parallel = run_campaign(spec, threads);
    aggregates.push_back(exp::campaign::render_json(parallel));
    const std::vector<exp::campaign::Cell> cells = exp::campaign::expand(spec);
    std::vector<exp::Scenario> scenarios;
    for (const auto& ref : spec.scenarios) scenarios.push_back(ref.resolve());
    std::vector<exp::AlgorithmSpec> algorithms;
    for (const auto& ref : spec.policies) algorithms.push_back(ref.resolve());
    attempted += 2 * cells.size();
    failed += failed_cells(parallel);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const exp::campaign::Cell& cell = cells[i];
      const metrics::RunMetrics traced = traced_run(
          scenarios[cell.scenario], algorithms[cell.policy], cell.seed,
          layers);
      if (canonical(traced) != canonical(parallel.cells[i].metrics)) ++failed;
    }
    if (!timing) continue;
    const exp::campaign::CampaignResult serial = run_campaign(spec, 1);
    attempted += cells.size();
    failed += failed_cells(serial);
    if (exp::campaign::render_json(serial) != aggregates.back()) ++failed;
    parallel_capacity_s += parallel.wall_seconds * parallel.threads;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      around.cell_ms.push_back(parallel.cells[i].wall_seconds * 1e3);
      parallel_cell_s += parallel.cells[i].wall_seconds;
      serial_cell_s += serial.cells[i].wall_seconds;
      layers.gen_ms += generation_ms(scenarios[cells[i].scenario],
                                     cells[i].seed);
    }
  }
  bench::JsonObject out;
  out.text("workload", "paper-campaign")
      .integer("parts", kCampaignParts)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("digests", digest_array(aggregates))
      .text("counts_digest", fnv_hex(layers.counts()))
      .boolean("invariants", invariants_hold(layers));
  if (timing) {
    around.busy_ratio = ratio(parallel_cell_s, parallel_capacity_s);
    around.inflation = ratio(parallel_cell_s, serial_cell_s);
    around.trace_overhead_pct =
        100.0 * (layers.wall_ms / (serial_cell_s * 1e3) - 1.0);
    around.stamp_overhead_pct = 0.0;  // the campaign attaches no stamp
    out.raw("layers", layer_metrics(layers, around).str());
  }
  return out.str();
}

Args parse(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Args args;
  args.workload = cli.get_or("workload", std::string());
  args.mode = cli.get_or("mode", std::string("run"));
  args.seed = static_cast<std::uint64_t>(
      cli.get_or("seed", static_cast<std::int64_t>(args.seed)));
  const std::int64_t part = cli.get_or("part", std::int64_t{0});
  if (part < 0) throw std::invalid_argument("--part must be >= 0");
  args.part = static_cast<std::size_t>(part);
  args.spec_path = cli.get_or("spec", args.spec_path);
  const std::int64_t t0_ns = cli.get_or("t0-ns", std::int64_t{-1});
  if (t0_ns >= 0) {
    args.t0 = Clock::time_point(std::chrono::nanoseconds(t0_ns));
  }
  if (args.mode != "run" && args.mode != "trace" && args.mode != "digest") {
    throw std::invalid_argument("--mode must be run, trace or digest");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    std::string line;
    if (args.workload == "paper-campaign") {
      if (args.part >= kCampaignParts) {
        throw std::invalid_argument("--part out of range");
      }
      line = campaign(args);
    } else {
      for (const SingleRun& w : kSingleRuns) {
        if (args.workload != w.name) continue;
        if (args.part >= w.parts) {
          throw std::invalid_argument("--part out of range");
        }
        line = single_run(w, args);
      }
    }
    if (line.empty()) {
      std::fprintf(stderr, "perfbench_probe: unknown --workload \"%s\"\n",
                   args.workload.c_str());
      return 2;
    }
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
