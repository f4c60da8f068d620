#include "sim/specs_from_flags.hpp"

#include <stdexcept>

namespace circles::sim {

namespace {

void require_non_negative(const char* flag,
                          const std::vector<std::int64_t>& values) {
  for (const auto v : values) {
    if (v < 0) {
      throw std::invalid_argument("flag --" + std::string(flag) +
                                  " expects non-negative values, got " +
                                  std::to_string(v));
    }
  }
}

}  // namespace

SweepSpecs specs_from_flags(util::Cli& cli, const SweepFlagDefaults& defaults) {
  const auto protocols = cli.string_list_flag(
      "protocol", defaults.protocols, "protocol registry names to sweep");
  const auto ks =
      cli.int_list_flag("k", defaults.ks, "color counts to sweep");
  const auto ns =
      cli.int_list_flag("n", defaults.ns, "population sizes to sweep");
  const auto schedulers = cli.string_list_flag(
      "scheduler", defaults.schedulers,
      "schedulers to sweep (uniform, round_robin, shuffled, adversarial, "
      "clustered)");
  const auto backends = cli.string_list_flag(
      "backend", defaults.backends,
      "simulation backends to sweep (agent, dense, dense_batched, fluid, "
      "auto)");
  const auto rtol = cli.double_flag(
      "rtol", 0.0,
      "fluid-backend relative step tolerance (0 = engine default; "
      "fluid/auto cells only)");
  const auto atol = cli.double_flag(
      "atol", 0.0,
      "fluid-backend absolute step tolerance (0 = engine default; "
      "fluid/auto cells only)");
  const std::string clusters_flag = cli.string_flag(
      "clusters", "",
      "clustered-scheduler shape: one value = number of equal clusters, "
      "several = explicit cluster sizes (clustered cells only)");
  std::vector<std::int64_t> clusters;
  for (const auto& part : util::split_commas(clusters_flag)) {
    std::size_t used = 0;
    std::int64_t value = 0;
    try {
      value = std::stoll(part, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    // Full-token match only ("4x" / "2.5" must not silently truncate), and
    // zero is rejected here the same way RunSpec::parse rejects clusters=0.
    if (used != part.size() || value < 1) {
      throw std::invalid_argument(
          "flag --clusters expects comma-separated positive integers, got '" +
          clusters_flag + "'");
    }
    clusters.push_back(value);
  }
  const auto bridge = cli.double_flag(
      "bridge", 0.01,
      "clustered-scheduler inter-cluster interaction probability");
  const auto workload = WorkloadSpec::parse(cli.string_flag(
      "workload", defaults.workload,
      "workload family (unique, random, tie:<t>, margin1, dominant:<s>, "
      "zipf:<s>, counts:<c0,c1,...>)"));
  const auto trials =
      cli.int_flag("trials", defaults.trials, "trials per grid cell");
  const auto seed = static_cast<std::uint64_t>(
      cli.int_flag("seed", defaults.seed, "base rng seed"));
  const auto budget = cli.int_flag(
      "budget", defaults.budget, "interaction budget (0 = engine default)");

  require_non_negative("k", ks);
  require_non_negative("n", ns);
  require_non_negative("trials", {trials});
  require_non_negative("budget", {budget});
  require_non_negative("clusters", clusters);

  SweepSpecs out;
  out.base_seed = seed;
  for (const auto& protocol : protocols) {
    for (const auto k : ks) {
      for (const auto n : ns) {
        for (const auto& scheduler : schedulers) {
          for (const auto& backend : backends) {
            RunSpec spec;
            spec.protocol = protocol;
            spec.params.k = static_cast<std::uint32_t>(k);
            spec.n = static_cast<std::uint64_t>(n);
            spec.workload = workload;
            spec.scheduler = pp::scheduler_kind_from_string(scheduler);
            spec.backend = engine_kind_from_string(backend);
            // The tolerances are fluid-only knobs; applying them to the
            // whole cross product would make the BatchRunner reject the
            // agent/dense cells of a mixed-backend sweep.
            if (spec.backend == EngineKind::kFluid ||
                spec.backend == EngineKind::kAuto) {
              spec.rtol = rtol;
              spec.atol = atol;
            }
            spec.trials = static_cast<std::uint32_t>(trials);
            if (budget > 0) {
              spec.engine.max_interactions =
                  static_cast<std::uint64_t>(budget);
            }
            if (spec.scheduler == pp::SchedulerKind::kClustered) {
              if (clusters.size() == 1) {
                spec.clusters = static_cast<std::uint32_t>(clusters[0]);
              } else if (clusters.size() > 1) {
                spec.cluster_sizes.assign(clusters.begin(), clusters.end());
              }
              spec.bridge = bridge;
            }
            // Dense backends simulate lumpable schedulers (uniform,
            // clustered) only; backend=auto resolves instead of rejecting.
            // Skip the invalid corner of a multi-valued cross product; the
            // guard below still rejects a grid that asked for nothing else.
            const bool lumpable =
                spec.scheduler == pp::SchedulerKind::kUniformRandom ||
                spec.scheduler == pp::SchedulerKind::kClustered;
            if (spec.backend != EngineKind::kAgentArray &&
                spec.backend != EngineKind::kAuto && !lumpable) {
              continue;
            }
            out.specs.push_back(std::move(spec));
          }
        }
      }
    }
  }
  if (out.specs.empty()) {
    throw std::invalid_argument(
        "the requested grid is empty: count-level backends (--backend=dense, "
        "dense_batched, fluid) support lumpable schedulers only (uniform, "
        "clustered) — use --backend=auto to pick per cell");
  }
  return out;
}

}  // namespace circles::sim
