// E11 — implementation quality: raw transition throughput and end-to-end
// simulation throughput (interactions/second) for every protocol family,
// single- and multi-threaded.
//
// The end-to-end section runs fixed-budget RunSpecs (silence stop off, so
// items processed = the budget) through the BatchRunner twice: once with
// one worker thread and once with --threads (default: hardware). Results
// are bitwise identical either way; only the wall clock changes. On a
// >= 4-core machine the multi-threaded pass is expected to be > 2x faster.
//
// The calibration section times agent, per-step dense and dense_batched to
// silence on a grid of circles cells and checks that backend=auto picks the
// fastest backend (within 10%) at every size; --calibration_only runs just
// that section (EXPERIMENTS.md, "Auto crossover").
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "exp_common.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace circles;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Raw transition-function calls over a pseudo-random state stream.
double transitions_per_second(const pp::Protocol& protocol,
                              std::uint64_t calls) {
  util::Rng rng(1);
  const auto num_states = protocol.num_states();
  std::vector<pp::StateId> stream(4096);
  for (auto& s : stream) {
    s = static_cast<pp::StateId>(rng.uniform_below(num_states));
  }
  // Fold the results into a checksum so the loop cannot be optimized away.
  volatile std::uint64_t checksum = 0;
  const auto start = Clock::now();
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < calls; ++i) {
    const pp::StateId a = stream[i & 4095];
    const pp::StateId b = stream[(i + 1) & 4095];
    const pp::Transition t = protocol.transition(a, b);
    acc += t.initiator + t.responder;
  }
  const double elapsed = seconds_since(start);
  checksum = acc;
  (void)checksum;
  return elapsed > 0 ? static_cast<double>(calls) / elapsed : 0.0;
}

/// Trials per calibration cell: about this many agents in total, 1 to 200
/// trials, so small-n cells average out trial-to-trial spread. --smoke
/// runs fewer sizes, not fewer trials: a smoke cell samples the same
/// trials as the full grid's.
constexpr std::uint64_t kCalibrationWork = 16'000;

/// auto passes a calibration size when its pick ran within this factor of
/// the fastest backend, summed over the grid's workloads.
constexpr double kCalibrationSlack = 1.10;

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // --smoke shrinks every size so the whole binary finishes in seconds on a
  // CI runner; the determinism/correctness checks still bind but the
  // wall-clock ratio requirements (thread speedup, urn/fluid margins) do
  // not — small sizes cannot amortize anything.
  const bool smoke = cli.bool_flag(
      "smoke", false,
      "CI sizes: identity/correctness checks only, perf ratios reported but "
      "not required");
  const std::string json_path = cli.string_flag(
      "json", "",
      "write the schema-stable throughput report (BENCH_throughput.json) "
      "to this path");
  const auto trials = static_cast<std::uint32_t>(cli.int_flag(
      "trials", smoke ? 4 : 32, "fixed-budget runs per engine spec"));
  const auto budget = static_cast<std::uint64_t>(cli.int_flag(
      "budget", smoke ? 1 << 12 : 1 << 16,
      "interactions per fixed-budget run"));
  const auto calls = static_cast<std::uint64_t>(cli.int_flag(
      "transition_calls", smoke ? 200'000 : 2'000'000,
      "calls per raw transition benchmark"));
  const auto dense_n = static_cast<std::uint64_t>(cli.int_flag(
      "dense_n", smoke ? 2'000 : 10'000,
      "population size for the backend comparison"));
  const auto dense_trials = static_cast<std::uint32_t>(cli.int_flag(
      "dense_trials", smoke ? 2 : 3, "runs-to-silence per backend"));
  const auto urn_n = static_cast<std::uint64_t>(cli.int_flag(
      "urn_n", smoke ? 20'000 : 1'000'000,
      "population size for the clustered urn-vs-agent comparison"));
  const auto urn_bridge = cli.double_flag(
      "urn_bridge", 0.001, "bridge probability of the clustered comparison");
  const auto urn_budget = static_cast<std::uint64_t>(cli.int_flag(
      "urn_budget", smoke ? 200'000 : 20'000'000,
      "interaction budget for the agent-engine rate measurement"));
  const auto fluid_n = static_cast<std::uint64_t>(cli.int_flag(
      "fluid_n", smoke ? 1'000'000 : 1'000'000'000,
      "population size for the fluid run-to-convergence comparison"));
  const auto fluid_sample_budget = static_cast<std::uint64_t>(cli.int_flag(
      "fluid_sample_budget", smoke ? 500'000 : 50'000'000,
      "interaction budget for the dense_batched rate measurement at fluid_n"));
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 2, "rng seed"));
  const bool calibration_only = cli.bool_flag(
      "calibration_only", false,
      "run only the auto calibration section (table, JSON cells, verdict)");
  const bool progress = cli.bool_flag(
      "progress", false,
      "stderr heartbeat every 2s: trials done, interactions/sec");
  auto batch = bench::batch_options(cli, seed);
  cli.finish();
  if (batch.threads == 0) {
    batch.threads = std::thread::hardware_concurrency();
    if (batch.threads == 0) batch.threads = 1;
  }
  if (progress) {
    batch.progress = [](const sim::BatchProgress& p) {
      std::fprintf(stderr,
                   "progress: %llu/%llu trials, %u/%u specs, %.0f "
                   "interactions/s, %.1fs elapsed\n",
                   static_cast<unsigned long long>(p.trials_done),
                   static_cast<unsigned long long>(p.trials_total),
                   p.specs_done, p.specs_total, p.interactions_per_s(),
                   p.elapsed_s);
    };
  }

  // Batch-wide telemetry: every BatchRunner below flushes engine counters,
  // kernel stats and phase timers here; the snapshot rides along in the
  // JSON report.
  metrics::MetricsRegistry metrics_registry;
  batch.metrics = &metrics_registry;
  bench::Report report("throughput");
  metrics::RunManifest manifest = metrics::RunManifest::collect();
  manifest.spec = smoke ? "bench_throughput --smoke" : "bench_throughput";
  manifest.backend = "mixed";
  manifest.kernel = "per-spec";
  manifest.seed = seed;
  manifest.trials = trials;
  manifest.threads = batch.threads;
  const auto t_program = Clock::now();
  // The machine-readable perf trajectory, written before the verdict so a
  // FAIL run still leaves its numbers behind for diagnosis.
  const auto write_report = [&] {
    if (json_path.empty()) return;
    manifest.finished_utc = metrics::utc_timestamp_now();
    manifest.wall_ms = seconds_since(t_program) * 1000.0;
    report.set_manifest(manifest);
    report.add_metrics(metrics_registry);
    report.write(json_path);
  };

  bench::print_header("E11",
                      "implementation quality — transition and engine "
                      "throughput, single- vs multi-threaded");

  // Auto crossover calibration: agent, per-step dense and dense_batched run
  // the same circles trials (same seeds, so the same workloads) to silence
  // on a (k, workload, n) grid, one thread, no telemetry. Each backend's
  // spec is prepared once per cell (kernel compile and engine build are
  // per spec, not per trial) and the backends take turns trial by trial, so
  // a slow spell of the machine hits all of them alike. A backend's figure
  // is its mean trial wall clock, best of three passes; one over 2x the
  // best so far skips its remaining passes. A backend over 10x slower than
  // the fastest at some n is not run at the larger n of its row: the gap
  // only widens with n, and those runs would take minutes.
  //
  // auto must never pick per-step dense. Its rules see k and n, not the
  // workload, so it is held to the grid's workloads together: at each
  // (k, n) its pick's summed time must be within kCalibrationSlack of the
  // best single backend's. Cells where a single workload's fastest backend
  // differs are reported, not held (at k=3 n=32 margin-1 favours
  // dense_batched, unique the agent array). Sizes where num_states > n
  // keeps auto on the agent array follow a memory rule, not a speed one
  // (at k=12 n=1000 one dense_batched trial peaks 3 MB above the agent
  // array): they are reported with their ratio but not held to it.
  std::uint32_t calibration_sizes = 0, calibration_failures = 0;
  std::uint32_t memory_rule_sizes = 0, cell_misses = 0;
  double memory_rule_worst = 1.0;
  std::string calibration_failure;
  {
    constexpr std::array<sim::EngineKind, 3> backends{
        sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
        sim::EngineKind::kDenseBatched};
    constexpr std::array<const char*, 2> workloads{"unique", "margin1"};
    constexpr int passes = 3;
    constexpr double kNotRun = std::numeric_limits<double>::infinity();
    const std::uint64_t calibration_seed = sim::mix_seed(seed, 0xCA1B);
    const std::vector<std::uint64_t> calibration_n =
        smoke ? std::vector<std::uint64_t>{32, 64, 128, 256, 1000}
              : std::vector<std::uint64_t>{32,   64,   128,  256,
                                           512,  1000, 2000, 4000,
                                           8000, 16000, 30000};
    util::Table table({"k", "n", "workload", "trials", "agent ms",
                       "dense ms", "dense_batched ms", "fastest", "auto",
                       "auto / fastest"});
    for (const std::uint32_t k : {3u, 5u, 12u}) {
      // Per workload row: backends dropped at a smaller n.
      std::array<std::array<bool, 3>, 2> pruned{};
      for (const std::uint64_t n : calibration_n) {
        std::array<double, 3> size_ms{};  // summed over the workloads
        sim::EngineKind pick = sim::EngineKind::kAuto;
        std::string reason;
        bool memory_rule = false;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
          sim::RunSpec spec;
          spec.protocol = "circles";
          spec.params.k = k;
          spec.n = n;
          spec.workload = sim::WorkloadSpec::parse(workloads[w]);
          spec.trials = static_cast<std::uint32_t>(
              std::clamp<std::uint64_t>(kCalibrationWork / n, 1, 200));
          spec.engine.max_interactions = ~std::uint64_t{0};
          std::array<std::optional<sim::PreparedSpec>, 3> prepared;
          for (std::size_t b = 0; b < backends.size(); ++b) {
            if (pruned[w][b]) continue;
            spec.backend = backends[b];
            prepared[b].emplace(spec, sim::ProtocolRegistry::global());
          }

          std::array<double, 3> ms;
          ms.fill(kNotRun);
          for (int pass = 0; pass < passes; ++pass) {
            const double best = *std::min_element(ms.begin(), ms.end());
            std::array<double, 3> total{};
            for (std::uint32_t t = 0; t < spec.trials; ++t) {
              const std::uint64_t trial_seed =
                  sim::trial_seed(calibration_seed, t);
              for (std::size_t i = 0; i < backends.size(); ++i) {
                const std::size_t b = (pass + i) % backends.size();
                if (!prepared[b] || ms[b] > 2.0 * best) continue;
                const auto start = Clock::now();
                (void)prepared[b]->run_trial(trial_seed);
                total[b] += seconds_since(start) * 1000.0;
              }
            }
            for (std::size_t b = 0; b < backends.size(); ++b) {
              if (prepared[b] && ms[b] <= 2.0 * best) {
                ms[b] = std::min(ms[b], total[b] / spec.trials);
              }
            }
          }
          const auto fastest = static_cast<std::size_t>(
              std::min_element(ms.begin(), ms.end()) - ms.begin());
          for (std::size_t b = 0; b < backends.size(); ++b) {
            size_ms[b] += ms[b];
            if (ms[b] > 10.0 * ms[fastest]) pruned[w][b] = true;
          }

          spec.backend = sim::EngineKind::kAuto;
          const sim::PreparedSpec resolved(spec,
                                           sim::ProtocolRegistry::global());
          pick = resolved.backend();
          reason = resolved.auto_reason();
          memory_rule = n >= sim::kAutoDenseMinN &&
                        resolved.kernel().num_states() > n;
          const auto at = static_cast<std::size_t>(
              std::find(backends.begin(), backends.end(), pick) -
              backends.begin());
          // A pick outside the three timed backends, or a pruned one, has
          // no figure: the ratio is infinite.
          const double ratio =
              at < backends.size() ? ms[at] / ms[fastest] : kNotRun;
          if (!memory_rule && ratio > kCalibrationSlack) ++cell_misses;

          auto& cell = report.add_cell()
                           .set("section", "calibration")
                           .set("protocol", "circles")
                           .set("k", std::uint64_t{k})
                           .set("n", n)
                           .set("workload", workloads[w])
                           .set("trials",
                                static_cast<std::uint64_t>(spec.trials));
          for (std::size_t b = 0; b < backends.size(); ++b) {
            if (!std::isinf(ms[b])) {
              cell.set(sim::to_string(backends[b]) + "_ms", ms[b]);
            }
          }
          cell.set("fastest", sim::to_string(backends[fastest]))
              .set("auto", sim::to_string(pick))
              .set("auto_reason", reason)
              .set("auto_over_fastest", ratio)
              .set("rule", memory_rule ? "memory" : "speed");
          const auto ms_text = [](double v) {
            return std::isinf(v) ? std::string("-") : util::Table::num(v, 3);
          };
          table.add_row({std::to_string(k), std::to_string(n), workloads[w],
                         std::to_string(spec.trials), ms_text(ms[0]),
                         ms_text(ms[1]), ms_text(ms[2]),
                         sim::to_string(backends[fastest]),
                         sim::to_string(pick),
                         util::Table::num(ratio, 2) +
                             (memory_rule ? " (states > n)" : "")});
        }

        // The size verdict: auto's pick against the best single backend
        // over both workloads.
        const auto best = static_cast<std::size_t>(
            std::min_element(size_ms.begin(), size_ms.end()) -
            size_ms.begin());
        const auto at = static_cast<std::size_t>(
            std::find(backends.begin(), backends.end(), pick) -
            backends.begin());
        const double ratio =
            at < backends.size() ? size_ms[at] / size_ms[best] : kNotRun;
        const bool ok = pick != sim::EngineKind::kDense &&
                        (memory_rule || ratio <= kCalibrationSlack);
        ++calibration_sizes;
        if (memory_rule) {
          ++memory_rule_sizes;
          memory_rule_worst = std::max(memory_rule_worst, ratio);
        }
        report.add_cell()
            .set("section", "calibration_size")
            .set("protocol", "circles")
            .set("k", std::uint64_t{k})
            .set("n", n)
            .set("fastest", sim::to_string(backends[best]))
            .set("auto", sim::to_string(pick))
            .set("auto_reason", reason)
            .set("auto_over_fastest", ratio)
            .set("rule", memory_rule ? "memory" : "speed")
            .set("auto_ok", ok ? "yes" : "no");
        if (!ok) {
          ++calibration_failures;
          if (calibration_failure.empty()) {
            calibration_failure =
                "auto picks " + sim::to_string(pick) + " on circles k=" +
                std::to_string(k) + " n=" + std::to_string(n) + " (" +
                util::Table::num(ratio, 2) + "x the fastest, " +
                sim::to_string(backends[best]) + ", over both workloads)";
          }
        }
      }
    }
    table.print("auto calibration — circles, ms per trial to silence (best "
                "of 3 passes, 1 thread; '-' = not run, over 10x the fastest "
                "at a smaller n)");
    std::printf(
        "auto calibration: %u/%u speed-rule sizes within %.0f%% of the "
        "fastest backend over both workloads, none on per-step dense; %u "
        "single-workload cells beyond %.0f%%; %u sizes kept on agent by "
        "num_states > n (up to %.2fx the fastest): %s\n",
        calibration_sizes - memory_rule_sizes - calibration_failures,
        calibration_sizes - memory_rule_sizes,
        (kCalibrationSlack - 1.0) * 100.0, cell_misses,
        (kCalibrationSlack - 1.0) * 100.0, memory_rule_sizes,
        memory_rule_worst, calibration_failures == 0 ? "PASS" : "FAIL");
  }
  const bool calibration_ok = calibration_failures == 0;
  if (calibration_only) {
    write_report();
    return bench::verdict(
        calibration_ok,
        calibration_ok ? "auto picks a backend within 10% of the fastest at "
                         "every calibration size its size rules decide"
                       : calibration_failure);
  }

  {
    util::Table table({"protocol", "raw transitions/sec"});
    const auto& registry = sim::ProtocolRegistry::global();
    struct RawCase {
      std::string label;
      std::string protocol;
      std::uint32_t k;
    };
    const std::vector<RawCase> raw_cases{
        {"circles k=4", "circles", 4},
        {"circles k=16", "circles", 16},
        {"circles k=64", "circles", 64},
        {"tie_report k=4", "tie_report", 4},
        {"tie_report k=16", "tie_report", 16},
        {"pairwise k=3", "pairwise_plurality", 3},
        {"pairwise k=5", "pairwise_plurality", 5},
        {"unordered k=4", "unordered_circles", 4},
        {"unordered k=8", "unordered_circles", 8},
    };
    for (const auto& c : raw_cases) {
      const auto protocol = registry.create(c.protocol, {.k = c.k});
      const double rate = transitions_per_second(*protocol, calls);
      table.add_row({c.label, util::Table::num(rate, 0)});
      report.add_cell()
          .set("section", "raw_transitions")
          .set("protocol", c.protocol)
          .set("k", static_cast<std::uint64_t>(c.k))
          .set("ops_per_sec", rate);
    }
    table.print("raw transition-function throughput");
  }

  // End-to-end engine throughput via the BatchRunner.
  std::vector<sim::RunSpec> specs;
  struct EngineCase {
    std::string protocol;
    std::uint32_t k;
    std::uint64_t n;
  };
  const std::vector<EngineCase> engine_cases{
      {"circles", 8, 256},        {"circles", 8, 4096},
      {"circles", 32, 1024},      {"exact_majority_4state", 2, 1024},
      {"approx_majority_3state", 2, 1024}, {"pairwise_plurality", 4, 256},
  };
  for (const auto& c : engine_cases) {
    sim::RunSpec spec;
    spec.protocol = c.protocol;
    spec.params.k = c.k;
    spec.n = c.n;
    spec.trials = trials;
    spec.engine.max_interactions = budget;
    spec.engine.stop_when_silent = false;
    specs.push_back(std::move(spec));
  }

  // Keep per-trial records so the determinism check below can compare
  // seeds and outcomes trial by trial, not just aggregate means.
  auto single_options = batch;
  single_options.threads = 1;
  auto pooled_options = batch;

  const auto t1 = Clock::now();
  const auto single = sim::BatchRunner(single_options).run(specs);
  const double single_seconds = seconds_since(t1);

  const auto t2 = Clock::now();
  const auto pooled = sim::BatchRunner(pooled_options).run(specs);
  const double pooled_seconds = seconds_since(t2);

  double total_interactions = 0;
  bool identical = true;
  util::Table table({"protocol", "k", "n", "interactions",
                     "mean state changes"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::SpecResult& r = pooled[i];
    identical = identical &&
                single[i].interactions.mean == r.interactions.mean &&
                single[i].state_changes.mean == r.state_changes.mean &&
                single[i].correct == r.correct &&
                single[i].silent == r.silent &&
                single[i].consensus == r.consensus &&
                single[i].trials.size() == r.trials.size();
    for (std::size_t t = 0; identical && t < r.trials.size(); ++t) {
      identical =
          single[i].trials[t].seed == r.trials[t].seed &&
          single[i].trials[t].outcome.run.interactions ==
              r.trials[t].outcome.run.interactions &&
          single[i].trials[t].outcome.run.state_changes ==
              r.trials[t].outcome.run.state_changes &&
          single[i].trials[t].outcome.consensus ==
              r.trials[t].outcome.consensus;
    }
    total_interactions += r.interactions.mean * r.trial_count;
    table.add_row({r.spec.protocol,
                   util::Table::num(std::uint64_t{r.spec.params.k}),
                   util::Table::num(r.spec.n),
                   util::Table::num(r.interactions.mean * r.trial_count, 0),
                   util::Table::num(r.state_changes.mean, 0)});
  }
  table.print("fixed-budget engine workload (" + std::to_string(trials) +
              " trials x " + std::to_string(budget) + " interactions)");

  const double single_rate =
      single_seconds > 0 ? total_interactions / single_seconds : 0;
  const double pooled_rate =
      pooled_seconds > 0 ? total_interactions / pooled_seconds : 0;
  const double speedup =
      pooled_seconds > 0 ? single_seconds / pooled_seconds : 0;
  std::printf("\n1 thread : %8.2fs  (%12.0f interactions/sec)\n",
              single_seconds, single_rate);
  std::printf("%u threads: %8.2fs  (%12.0f interactions/sec)  speedup %.2fx\n",
              batch.threads, pooled_seconds, pooled_rate, speedup);
  std::printf("(aggregated results bitwise identical across thread counts: "
              "%s)\n",
              identical ? "yes" : "NO");
  bench::print_kernel_stats(pooled);
  report.add_cell()
      .set("section", "fixed_budget")
      .set("backend", "agent")
      .set("threads", 1)
      .set("trials", static_cast<std::uint64_t>(trials))
      .set("interactions", total_interactions)
      .set("wall_ms", single_seconds * 1000.0)
      .set("ops_per_sec", single_rate);
  report.add_cell()
      .set("section", "fixed_budget")
      .set("backend", "agent")
      .set("threads", static_cast<std::uint64_t>(batch.threads))
      .set("trials", static_cast<std::uint64_t>(trials))
      .set("interactions", total_interactions)
      .set("wall_ms", pooled_seconds * 1000.0)
      .set("ops_per_sec", pooled_rate)
      .set("speedup_vs_single", speedup);

  // Dense vs agent-array backends: identical specs (same pinned seed, so
  // identical per-trial workloads) run to silence on every backend; the
  // wall-clock ratio is the number this binary exists to track.
  double agent_seconds = 0.0, batched_seconds = 0.0;
  {
    util::Table dense_table({"backend", "trials", "mean interactions",
                             "mean state changes", "wall s",
                             "interactions/s", "speedup vs agent"});
    struct BackendRun {
      sim::EngineKind backend;
      double seconds = 0.0;
      sim::SpecResult result;
    };
    std::vector<BackendRun> runs;
    for (const auto backend :
         {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
          sim::EngineKind::kDenseBatched}) {
      sim::RunSpec spec;
      spec.protocol = "circles";
      spec.params.k = 3;
      spec.n = dense_n;
      spec.trials = dense_trials;
      spec.seed = sim::mix_seed(seed, 0xDE45E);
      spec.backend = backend;
      // Generous cap: circles' interactions-to-silence are strongly
      // superlinear in n; never let "hit the budget" pollute the timing.
      spec.engine.max_interactions = ~std::uint64_t{0};
      auto options = batch;
      options.keep_trials = false;
      const auto start = Clock::now();
      BackendRun run;
      run.result = sim::BatchRunner(options).run_one(spec);
      run.seconds = seconds_since(start);
      run.backend = backend;
      runs.push_back(std::move(run));
    }
    agent_seconds = runs.front().seconds;
    batched_seconds = runs.back().seconds;
    for (const BackendRun& run : runs) {
      const double total =
          run.result.interactions.mean * run.result.trial_count;
      report.add_cell()
          .set("section", "run_to_silence")
          .set("protocol", "circles")
          .set("k", 3)
          .set("backend", sim::to_string(run.backend))
          .set("n", dense_n)
          .set("trials", static_cast<std::uint64_t>(run.result.trial_count))
          .set("interactions", total)
          .set("wall_ms", run.seconds * 1000.0)
          .set("ops_per_sec", run.seconds > 0 ? total / run.seconds : 0.0)
          .set("speedup_vs_agent",
               run.seconds > 0 ? agent_seconds / run.seconds : 0.0);
      dense_table.add_row(
          {sim::to_string(run.backend),
           util::Table::num(std::uint64_t{run.result.trial_count}),
           util::Table::num(run.result.interactions.mean, 0),
           util::Table::num(run.result.state_changes.mean, 0),
           util::Table::num(run.seconds, 2),
           util::Table::num(run.seconds > 0 ? total / run.seconds : 0.0, 0),
           util::Table::num(
               run.seconds > 0 ? agent_seconds / run.seconds : 0.0, 1)});
    }
    dense_table.print("backend comparison — circles k=3, n=" +
                      std::to_string(dense_n) + ", run to silence");
  }

  // Clustered topology at scale: the dense-urn backend runs a two-cluster
  // dumbbell to silence at n = urn_n, while the agent engine (the only
  // alternative for non-uniform schedulers before the urn engine existed)
  // is timed on a fixed budget and extrapolated to the same interaction
  // count — running it to silence outright would take hours, which is the
  // point. The speedup requirement (>= 10x) binds at n >= 10^6.
  double urn_speedup = 0.0;
  bool urn_identical_grading = true;
  {
    sim::RunSpec urn_spec;
    urn_spec.protocol = "circles";
    urn_spec.params.k = 3;
    urn_spec.n = urn_n;
    urn_spec.trials = 1;
    urn_spec.seed = sim::mix_seed(seed, 0x09B);
    urn_spec.scheduler = pp::SchedulerKind::kClustered;
    urn_spec.clusters = 2;
    urn_spec.bridge = urn_bridge;
    urn_spec.backend = sim::EngineKind::kDenseBatched;
    urn_spec.engine.max_interactions = ~std::uint64_t{0};
    auto options = batch;
    options.keep_trials = false;

    const auto t_urn = Clock::now();
    const auto urn = sim::BatchRunner(options).run_one(urn_spec);
    const double urn_seconds = seconds_since(t_urn);
    urn_identical_grading = urn.all_correct() && urn.all_silent();
    const double urn_interactions = urn.interactions.mean;

    sim::RunSpec agent_spec = urn_spec;
    agent_spec.backend = sim::EngineKind::kAgentArray;
    agent_spec.engine.max_interactions = urn_budget;
    agent_spec.engine.stop_when_silent = false;
    const auto t_agent = Clock::now();
    (void)sim::BatchRunner(options).run_one(agent_spec);
    const double agent_seconds = seconds_since(t_agent);
    const double agent_rate =
        agent_seconds > 0 ? static_cast<double>(urn_budget) / agent_seconds
                          : 0.0;
    // Seconds the agent engine would need for the urn run's interactions.
    const double agent_extrapolated_seconds =
        agent_rate > 0 ? urn_interactions / agent_rate : 0.0;
    urn_speedup =
        urn_seconds > 0 ? agent_extrapolated_seconds / urn_seconds : 0.0;

    report.add_cell()
        .set("section", "urn")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("interactions", urn_interactions)
        .set("wall_ms", urn_seconds * 1000.0)
        .set("ops_per_sec",
             urn_seconds > 0 ? urn_interactions / urn_seconds : 0.0)
        .set("speedup_vs_agent", urn_speedup);
    report.add_cell()
        .set("section", "urn")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "agent")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("interactions", static_cast<double>(urn_budget))
        .set("wall_ms", agent_seconds * 1000.0)
        .set("ops_per_sec", agent_rate)
        .set("note", "fixed-budget sample, extrapolated");
    util::Table urn_table({"engine", "interactions", "wall s",
                           "interactions/s", "speedup"});
    urn_table.add_row(
        {"dense_batched (urn), to silence",
         util::Table::num(urn_interactions, 0),
         util::Table::num(urn_seconds, 2),
         util::Table::num(
             urn_seconds > 0 ? urn_interactions / urn_seconds : 0.0, 0),
         util::Table::num(urn_speedup, 1) + "x"});
    urn_table.add_row(
        {"agent (" + std::to_string(urn_budget) + "-interaction sample)",
         util::Table::num(urn_interactions, 0) + " (target)",
         util::Table::num(agent_extrapolated_seconds, 0) + " (extrapolated)",
         util::Table::num(agent_rate, 0), "1.0x"});
    urn_table.print(
        "clustered dumbbell, 2 clusters, bridge " +
        util::Table::num(urn_bridge, 4) + ", circles k=3, n=" +
        std::to_string(urn_n) +
        " — urn backend to silence vs agent engine extrapolation");
  }

  // Fluid tier at the top of the ladder: the mean-field engine runs circles
  // k=3 at n = fluid_n to convergence (silent consensus) in wall-clock time
  // independent of n, while even the batched dense engine pays per
  // interaction; it is timed on a fixed budget and extrapolated to the fluid
  // run's interaction count. Counts are well separated on purpose — a
  // near-tied sub-race would measure the ODE's slow manifold, not its
  // throughput (see src/fluid/fluid_engine.hpp).
  double fluid_speedup = 0.0;
  double fluid_seconds = 0.0;
  bool fluid_converged = false;
  {
    sim::RunSpec fluid_spec;
    fluid_spec.protocol = "circles";
    fluid_spec.params.k = 3;
    fluid_spec.workload = sim::WorkloadSpec::explicit_counts(
        {fluid_n / 2, 3 * fluid_n / 10, fluid_n - fluid_n / 2 - 3 * fluid_n / 10});
    fluid_spec.trials = 1;
    fluid_spec.seed = sim::mix_seed(seed, 0xF1D);
    fluid_spec.backend = sim::EngineKind::kFluid;
    // The default budget is interaction-denominated and would be a fraction
    // of one chemical-time unit at n = 1e9; circles converges near t = 84,
    // so 200 units of horizon is convergence with slack.
    fluid_spec.engine.max_interactions = 200 * fluid_n;
    auto options = batch;
    options.keep_trials = false;

    const auto t_fluid = Clock::now();
    const auto fluid = sim::BatchRunner(options).run_one(fluid_spec);
    fluid_seconds = seconds_since(t_fluid);
    fluid_converged = fluid.all_correct() && fluid.all_silent();
    const double fluid_interactions = fluid.interactions.mean;

    sim::RunSpec batched_spec = fluid_spec;
    batched_spec.backend = sim::EngineKind::kDenseBatched;
    batched_spec.engine.max_interactions = fluid_sample_budget;
    batched_spec.engine.stop_when_silent = false;
    const auto t_batched = Clock::now();
    (void)sim::BatchRunner(options).run_one(batched_spec);
    const double batched_seconds = seconds_since(t_batched);
    const double batched_rate =
        batched_seconds > 0
            ? static_cast<double>(fluid_sample_budget) / batched_seconds
            : 0.0;
    const double batched_extrapolated_seconds =
        batched_rate > 0 ? fluid_interactions / batched_rate : 0.0;
    fluid_speedup = fluid_seconds > 0
                        ? batched_extrapolated_seconds / fluid_seconds
                        : 0.0;

    report.add_cell()
        .set("section", "fluid")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "fluid")
        .set("n", fluid_n)
        .set("interactions", fluid_interactions)
        .set("wall_ms", fluid_seconds * 1000.0)
        .set("ops_per_sec",
             fluid_seconds > 0 ? fluid_interactions / fluid_seconds : 0.0)
        .set("speedup_vs_dense_batched", fluid_speedup);
    report.add_cell()
        .set("section", "fluid")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", fluid_n)
        .set("interactions", static_cast<double>(fluid_sample_budget))
        .set("wall_ms", batched_seconds * 1000.0)
        .set("ops_per_sec", batched_rate)
        .set("note", "fixed-budget sample, extrapolated");
    util::Table fluid_table({"engine", "interactions", "wall s",
                             "interactions/s", "speedup"});
    fluid_table.add_row(
        {"fluid (mean-field), to convergence",
         util::Table::num(fluid_interactions, 0),
         util::Table::num(fluid_seconds, 3),
         util::Table::num(
             fluid_seconds > 0 ? fluid_interactions / fluid_seconds : 0.0, 0),
         util::Table::num(fluid_speedup, 0) + "x"});
    fluid_table.add_row(
        {"dense_batched (" + std::to_string(fluid_sample_budget) +
             "-interaction sample)",
         util::Table::num(fluid_interactions, 0) + " (target)",
         util::Table::num(batched_extrapolated_seconds, 0) +
             " (extrapolated)",
         util::Table::num(batched_rate, 0), "1.0x"});
    fluid_table.print("fluid vs dense_batched — circles k=3, n=" +
                      std::to_string(fluid_n) +
                      ", run to convergence vs extrapolation");
  }

  // Span-tracing overhead: the clustered dumbbell from the urn section
  // (dense_batched, n = urn_n) re-run to silence with and without a
  // trace::Tracer attached. The tracing contract is observation-only —
  // results must stay bitwise identical record by record — and the
  // decimated spans must stay under 2% wall-clock overhead. Each mode takes
  // the best of several passes so the 2% bound measures tracing, not
  // scheduler noise.
  double spans_overhead = 0.0;
  bool spans_identical = true;
  std::uint64_t spans_events = 0;
  {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = urn_n;
    spec.trials = 1;
    spec.seed = sim::mix_seed(seed, 0x59A2);
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = 2;
    spec.bridge = urn_bridge;
    spec.backend = sim::EngineKind::kDenseBatched;
    spec.engine.max_interactions = ~std::uint64_t{0};
    auto options = batch;
    options.keep_trials = true;
    const int passes = smoke ? 1 : 3;

    double off_seconds = 1e300;
    sim::SpecResult off;
    for (int pass = 0; pass < passes; ++pass) {
      const auto start = Clock::now();
      off = sim::BatchRunner(options).run_one(spec);
      off_seconds = std::min(off_seconds, seconds_since(start));
    }

    double on_seconds = 1e300;
    sim::SpecResult on;
    for (int pass = 0; pass < passes; ++pass) {
      // Fresh tracer per pass: ring buffers start empty, like a real run.
      trace::Tracer tracer;
      auto traced = options;
      traced.tracer = &tracer;
      const auto start = Clock::now();
      on = sim::BatchRunner(traced).run_one(spec);
      on_seconds = std::min(on_seconds, seconds_since(start));
      spans_events = tracer.drain().size();
    }

    spans_identical = off.trials.size() == on.trials.size();
    for (std::size_t t = 0; spans_identical && t < on.trials.size(); ++t) {
      spans_identical =
          off.trials[t].seed == on.trials[t].seed &&
          off.trials[t].outcome.run.interactions ==
              on.trials[t].outcome.run.interactions &&
          off.trials[t].outcome.run.state_changes ==
              on.trials[t].outcome.run.state_changes &&
          off.trials[t].outcome.run.final_outputs ==
              on.trials[t].outcome.run.final_outputs;
    }
    spans_overhead =
        off_seconds > 0 ? on_seconds / off_seconds - 1.0 : 0.0;

    report.add_cell()
        .set("section", "spans_overhead")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("wall_ms", on_seconds * 1000.0)
        .set("baseline_wall_ms", off_seconds * 1000.0)
        .set("overhead", spans_overhead)
        .set("events", spans_events);
    util::Table spans_table({"mode", "wall s", "events", "overhead"});
    spans_table.add_row({"spans off", util::Table::num(off_seconds, 3), "-",
                         "baseline"});
    spans_table.add_row(
        {"spans on", util::Table::num(on_seconds, 3),
         util::Table::num(spans_events),
         util::Table::num(spans_overhead * 100.0, 2) + "%"});
    spans_table.print(
        "span-tracing overhead — clustered dumbbell, dense_batched, n=" +
        std::to_string(urn_n) + ", run to silence (bitwise identical "
        "results: " +
        std::string(spans_identical ? "yes" : "NO") + ")");
  }

  write_report();

  // The speedup requirement only binds where the hardware can deliver it —
  // and never under --smoke, whose sizes are too small to amortize anything
  // (the identity/correctness checks still bind there).
  const bool speedup_ok = smoke || batch.threads < 4 || speedup > 2.0;
  const bool urn_ok =
      urn_identical_grading &&
      (smoke || urn_n < 1'000'000 || urn_speedup >= 10.0);
  // The fluid engine's whole value proposition: silent consensus at huge n
  // for less wall clock than the dense ladder could ever spend. The margin
  // requirement binds once extrapolation is meaningful (n >= 10^8).
  const bool fluid_ok =
      fluid_converged &&
      (smoke || fluid_n < 100'000'000 || fluid_speedup >= 100.0);
  const bool dense_ok = smoke || batched_seconds <= agent_seconds;
  // Tracing is observation-only by contract: identical results always, and
  // at real sizes the decimated spans must cost under 2% wall clock.
  const bool spans_ok =
      spans_identical && (smoke || spans_overhead < 0.02);
  const bool pass = identical && single_rate > 0 && speedup_ok && dense_ok &&
                    urn_ok && fluid_ok && spans_ok && calibration_ok;
  std::string failure;
  if (!calibration_ok) {
    failure = calibration_failure;
  } else if (!identical) {
    failure = "thread count changed the results";
  } else if (single_rate <= 0) {
    failure = "single-threaded throughput measured as zero";
  } else if (!speedup_ok) {
    failure = "multi-threaded speedup below expectation";
  } else if (!dense_ok) {
    failure = "dense backend slower than the agent array";
  } else if (!urn_identical_grading) {
    failure = "clustered urn run failed to reach silent consensus";
  } else if (!urn_ok) {
    failure = "clustered urn speedup below the 10x requirement (" +
              std::to_string(urn_speedup) + "x at n=" +
              std::to_string(urn_n) + ")";
  } else if (!spans_identical) {
    failure = "span tracing changed the results";
  } else if (!spans_ok) {
    failure = "span-tracing overhead above the 2% requirement (" +
              std::to_string(spans_overhead * 100.0) + "%)";
  } else if (!fluid_converged) {
    failure = "fluid run failed to reach silent consensus at n=" +
              std::to_string(fluid_n);
  } else {
    failure = "fluid speedup below the 100x requirement (" +
              std::to_string(fluid_speedup) + "x at n=" +
              std::to_string(fluid_n) + ")";
  }
  return bench::verdict(
      pass, pass ? "throughput measured; auto within 10% of the fastest "
                   "backend wherever its size rules decide; deterministic "
                   "results at every thread count; dense backend at least "
                   "matches the agent array; clustered "
                   "urn backend beats the agent engine by " +
                       util::Table::num(urn_speedup, 0) + "x at n=" +
                       std::to_string(urn_n) +
                       "; fluid tier reaches consensus at n=" +
                       std::to_string(fluid_n) + " " +
                       util::Table::num(fluid_speedup, 0) +
                       "x faster than the dense extrapolation"
                 : failure);
}
