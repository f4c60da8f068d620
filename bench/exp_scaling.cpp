// E18 — scaling: the dense (count-based) backends reproduce the agent-array
// stabilization curves and extend them to population sizes the agent array
// cannot reach.
//
// For every (protocol, n) cell the same pinned seed is used across backends,
// so all backends see identical per-trial workloads; the schedule randomness
// differs, but the stabilization statistics are identical in distribution
// (the count process is exactly lumpable). The verdict checks that where the
// agent array and the dense backends overlap, their mean state-change counts
// agree within a tolerance band, and that every run reached exact silence.
//
// The default grid finishes in about a minute (random workloads can hand the
// fluid tier slow near-tied loser races; see src/fluid/fluid_engine.hpp); the
// full curves are one flag away:
//   exp_scaling --n=10000,100000 --big_n=1000000,10000000,100000000
// (big_n sizes run on the batched dense backend only; circles' empirical
// interactions-to-silence grow superlinearly, so its biggest cells are real
// compute even on the dense backend). fluid_n sizes additionally run on the
// mean-field fluid backend, whose cost is independent of n — big_n cells get
// a fluid twin too, so the curves overlap where both tiers can run.
// One margin-1 cell (circles k=12, n=10^5; n=10^4 under --smoke) runs the
// paper's k^3 states on its hardest input, on the batched dense backend
// only; it times the count tier where its cost grows with k.
// --smoke shrinks the grid for CI.
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "exp_common.hpp"
#include "kernel/compiled_protocol.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace circles;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CellResult {
  sim::RunSpec spec;
  sim::SpecResult result;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool smoke = cli.bool_flag(
      "smoke", false, "tiny grid for CI (overrides --n/--big_n/--trials)");
  auto ns = cli.int_list_flag(
      "n", "10000", "population sizes for all backends");
  auto big_ns = cli.int_list_flag(
      "big_n", "1000000", "extra sizes for the batched dense backend only");
  auto fluid_ns = cli.int_list_flag(
      "fluid_n", "1000000000",
      "extra sizes for the mean-field fluid backend only");
  const auto protocols = cli.string_list_flag(
      "protocol", "circles,approx_majority_3state",
      "protocols to sweep (baselines default to their fixed k)");
  const auto k = static_cast<std::uint32_t>(
      cli.int_flag("k", 3, "colors for protocols with variable k"));
  auto trials =
      static_cast<std::uint32_t>(cli.int_flag("trials", 5, "trials per cell"));
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 7, "base rng seed"));
  auto agent_cap = static_cast<std::uint64_t>(cli.int_flag(
      "agent_cap", 200'000,
      "largest n simulated on the agent-array backend (wall clock guard)"));
  auto perstep_cap = static_cast<std::uint64_t>(cli.int_flag(
      "perstep_cap", 200'000,
      "largest n simulated on the per-step dense backend"));
  const auto budget = static_cast<std::uint64_t>(cli.int_flag(
      "budget", 0,
      "interaction budget per run (0 = auto: scales with n ln n so every "
      "size can reach silence)"));
  const std::string json_path = cli.string_flag(
      "json", "",
      "write the schema-stable scaling report (BENCH_scaling.json) to this "
      "path");
  const bool progress = cli.bool_flag(
      "progress", false,
      "stderr heartbeat every 2s: trials done, interactions/sec");
  auto batch = bench::batch_options(cli, seed);
  cli.finish();
  // The margin-1 cell's circles color count and population size.
  constexpr std::uint32_t kMargin1K = 12;
  std::uint64_t margin1_n = 100'000;
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

  if (smoke) {
    ns = {1'000, 10'000};
    big_ns = {100'000};
    fluid_ns = {10'000'000};
    trials = 3;
    agent_cap = 10'000;
    perstep_cap = 10'000;
    margin1_n = 10'000;
  }

  bench::print_header(
      "E18",
      "scaling — dense batch simulation reproduces the agent-array "
      "stabilization curves and extends them beyond the agent array's reach");

  struct Cell {
    std::string protocol;
    std::uint64_t n;
    sim::EngineKind backend;
    bool margin1 = false;  // circles at kMargin1K on the margin-1 workload
  };
  std::vector<Cell> cells;
  for (const auto& protocol : protocols) {
    for (const auto n : ns) {
      const auto un = static_cast<std::uint64_t>(n);
      if (un <= agent_cap) {
        cells.push_back({protocol, un, sim::EngineKind::kAgentArray});
      }
      if (un <= perstep_cap) {
        cells.push_back({protocol, un, sim::EngineKind::kDense});
      }
      cells.push_back({protocol, un, sim::EngineKind::kDenseBatched});
    }
    for (const auto n : big_ns) {
      cells.push_back({protocol, static_cast<std::uint64_t>(n),
                       sim::EngineKind::kDenseBatched});
      // Fluid twin: same seed, same per-trial workloads, so the state-change
      // curves line up with the batched cell directly above.
      cells.push_back({protocol, static_cast<std::uint64_t>(n),
                       sim::EngineKind::kFluid});
    }
    for (const auto n : fluid_ns) {
      cells.push_back({protocol, static_cast<std::uint64_t>(n),
                       sim::EngineKind::kFluid});
    }
  }
  cells.push_back(
      {"circles", margin1_n, sim::EngineKind::kDenseBatched, true});

  // Run cells one at a time so each gets its own wall clock. Trials within
  // a cell still use the BatchRunner's thread pool.
  metrics::MetricsRegistry metrics_registry;
  sim::BatchOptions options = batch;
  options.keep_trials = false;
  options.metrics = &metrics_registry;
  const sim::BatchRunner runner(options);
  const auto t_program = Clock::now();

  std::vector<CellResult> results;
  for (const Cell& cell : cells) {
    const auto& registry = sim::ProtocolRegistry::global();
    sim::RunSpec spec;
    spec.protocol = cell.protocol;
    // Baselines with fixed k reject other values; probe with k first.
    spec.params.k = k;
    try {
      (void)registry.create(cell.protocol, spec.params);
    } catch (const std::invalid_argument&) {
      spec.params.k = 2;  // the binary baselines
    }
    spec.n = cell.n;
    spec.backend = cell.backend;
    spec.trials = trials;
    if (cell.margin1) {
      spec.params.k = kMargin1K;
      spec.workload = sim::WorkloadSpec::close_margin();
    }
    if (budget > 0) {
      spec.engine.max_interactions = budget;
    } else if (cell.margin1) {
      // Margin-1 inputs take ~5-8 n^2 interactions to silence.
      const double nd = static_cast<double>(cell.n);
      spec.engine.max_interactions =
          static_cast<std::uint64_t>(std::min(100.0 * nd * nd, 9.0e18));
    } else {
      // Circles' empirical interactions-to-silence grow like ~n^2/30 (with
      // large workload-to-workload spread); budget n^2/2 so "hit the
      // budget" never masquerades as a scaling datapoint.
      const double nd = static_cast<double>(cell.n);
      const double cap = std::min(0.5 * nd * nd, 9.0e18);
      spec.engine.max_interactions = std::max<std::uint64_t>(
          500'000'000, static_cast<std::uint64_t>(cap));
    }
    // Same seed for every backend of a (protocol, n) cell: identical
    // per-trial workloads, so the curves are directly comparable. FNV-1a on
    // the name keeps the seed platform-independent (std::hash is not).
    std::uint64_t name_hash = 1469598103934665603ull;
    for (const char c : cell.protocol) {
      name_hash = (name_hash ^ static_cast<unsigned char>(c)) *
                  1099511628211ull;
    }
    spec.seed = sim::mix_seed(seed, sim::mix_seed(cell.n, name_hash));

    const auto start = Clock::now();
    CellResult r;
    r.result = runner.run_one(spec);
    r.seconds = seconds_since(start);
    r.spec = spec;
    results.push_back(std::move(r));
  }

  util::Table table({"protocol", "k", "n", "workload", "backend", "trials",
                     "silent", "mean state changes", "mean interactions",
                     "wall s", "interactions/s"});
  bool all_silent = true;
  std::vector<sim::SpecResult> spec_results;
  spec_results.reserve(results.size());
  for (const CellResult& r : results) {
    const auto& sr = r.result;
    all_silent = all_silent && sr.all_silent();
    const double total_interactions = sr.interactions.mean * sr.trial_count;
    table.add_row(
        {r.spec.protocol, util::Table::num(std::uint64_t{r.spec.params.k}),
         util::Table::num(r.spec.n), r.spec.workload.to_string(),
         sim::to_string(r.spec.backend),
         util::Table::num(std::uint64_t{sr.trial_count}),
         util::Table::percent(sr.silent_rate(), 0),
         util::Table::num(sr.state_changes.mean, 0),
         util::Table::num(sr.interactions.mean, 0),
         util::Table::num(r.seconds, 2),
         util::Table::num(
             r.seconds > 0 ? total_interactions / r.seconds : 0.0, 0)});
    spec_results.push_back(sr);
  }
  table.print("interactions to silence and wall clock, per backend");
  // Kernel compiles happen once per cell and their build time is part of
  // that cell's wall clock; the standard stats line keeps it from being
  // silently attributed to simulation throughput.
  bench::print_kernel_stats(spec_results);

  // Cross-backend agreement: state changes have the *same* distribution on
  // every backend (unlike raw interactions, where the agent array includes
  // its silence-detection overhead), so their means must agree up to
  // sampling noise.
  bool curves_agree = true;
  util::Table agree({"protocol", "n", "dense/agent state changes",
                     "batched/agent state changes", "agent s", "batched s",
                     "speedup"});
  for (const CellResult& a : results) {
    if (a.spec.backend != sim::EngineKind::kAgentArray) continue;
    const CellResult* dense = nullptr;
    const CellResult* batched = nullptr;
    for (const CellResult& b : results) {
      if (b.spec.protocol != a.spec.protocol || b.spec.n != a.spec.n ||
          b.spec.params.k != a.spec.params.k ||
          b.spec.workload.to_string() != a.spec.workload.to_string()) {
        continue;
      }
      if (b.spec.backend == sim::EngineKind::kDense) dense = &b;
      if (b.spec.backend == sim::EngineKind::kDenseBatched) batched = &b;
    }
    if (batched == nullptr) continue;
    // Ratio of mean state changes vs the agent cell; cells that did not run
    // render as "-" and do not vote on the verdict.
    const auto ratio = [&](const CellResult* r) -> std::optional<double> {
      if (r == nullptr || a.result.state_changes.mean <= 0) {
        return std::nullopt;
      }
      return r->result.state_changes.mean / a.result.state_changes.mean;
    };
    const auto in_band = [](std::optional<double> r) {
      return !r.has_value() || (*r > 0.5 && *r < 2.0);
    };
    const auto render = [](std::optional<double> r) {
      return r.has_value() ? util::Table::num(*r, 3) : std::string("-");
    };
    const auto dense_ratio = ratio(dense);
    const auto batched_ratio = ratio(batched);
    // Generous band: few trials of a concentrated statistic.
    curves_agree =
        curves_agree && in_band(dense_ratio) && in_band(batched_ratio);
    agree.add_row(
        {a.spec.protocol, util::Table::num(a.spec.n), render(dense_ratio),
         render(batched_ratio),
         util::Table::num(a.seconds, 2), util::Table::num(batched->seconds, 2),
         util::Table::num(
             batched->seconds > 0 ? a.seconds / batched->seconds : 0.0, 1)});
  }
  agree.print("agent-array vs dense agreement (state-change ratio ~ 1)");

  // Emit the machine-readable scaling trajectory before the verdict so a
  // FAIL run still leaves its numbers behind for diagnosis.
  if (!json_path.empty()) {
    bench::Report report("scaling");
    metrics::RunManifest manifest = metrics::RunManifest::collect();
    manifest.spec = smoke ? "exp_scaling --smoke" : "exp_scaling";
    manifest.backend = "mixed";
    manifest.kernel = "per-spec";
    manifest.seed = seed;
    manifest.trials = trials;
    manifest.threads = batch.threads;
    manifest.finished_utc = metrics::utc_timestamp_now();
    manifest.wall_ms = seconds_since(t_program) * 1000.0;
    report.set_manifest(manifest);
    for (const CellResult& r : results) {
      const auto& sr = r.result;
      const double total = sr.interactions.mean * sr.trial_count;
      report.add_cell()
          .set("section", "scaling")
          .set("protocol", r.spec.protocol)
          .set("k", static_cast<std::uint64_t>(r.spec.params.k))
          .set("n", r.spec.n)
          .set("workload", r.spec.workload.to_string())
          .set("backend", sim::to_string(sr.backend_resolved))
          .set("trials", static_cast<std::uint64_t>(sr.trial_count))
          .set("silent_rate", sr.silent_rate())
          .set("interactions", sr.interactions.mean)
          .set("state_changes", sr.state_changes.mean)
          .set("wall_ms", r.seconds * 1000.0)
          .set("ops_per_sec", r.seconds > 0 ? total / r.seconds : 0.0)
          .set("trial_ms_p50", sr.trial_ms.p50)
          .set("trial_ms_p90", sr.trial_ms.p90);
    }
    report.add_metrics(metrics_registry);
    report.write(json_path);
  }

  // Dense-only invocations (agent_cap below every n) have no overlap cells;
  // the agreement requirement binds only when agent cells ran.
  bool any_agent = false;
  for (const CellResult& r : results) {
    any_agent = any_agent || r.spec.backend == sim::EngineKind::kAgentArray;
  }
  const bool pass =
      all_silent && curves_agree && (!any_agent || agree.rows() > 0);
  return bench::verdict(
      pass,
      pass ? "dense backends reproduce the agent-array stabilization curves "
             "and extend them to larger n"
           : (all_silent ? "cross-backend stabilization curves diverged"
                         : "some runs failed to reach silence"));
}
